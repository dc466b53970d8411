package graph

import "math"

// StructuralFeatures computes per-vertex classic structural features: degree,
// log-degree, clustering coefficient, core number, and triangle count. These
// are the "classic graph structural features" that Stolman et al. (cited in
// the paper's introduction) found to outperform factorization-based
// embeddings for community labeling; internal/core exposes them as an
// analytics path.
type StructuralFeatures struct {
	Degree     []float64
	LogDegree  []float64
	Clustering []float64
	Core       []float64
	Triangles  []float64
}

// Dim is the number of features per vertex.
const FeatureDim = 5

// ComputeStructuralFeatures computes all structural features for g.
func ComputeStructuralFeatures(g *Graph) *StructuralFeatures {
	n := g.NumVertices()
	f := &StructuralFeatures{
		Degree:     make([]float64, n),
		LogDegree:  make([]float64, n),
		Clustering: make([]float64, n),
		Core:       make([]float64, n),
		Triangles:  make([]float64, n),
	}
	tri := LocalTriangles(g)
	core := CoreNumbers(g)
	for v := 0; v < n; v++ {
		d := g.Degree(V(v))
		f.Degree[v] = float64(d)
		f.LogDegree[v] = math.Log1p(float64(d))
		f.Triangles[v] = float64(tri[v])
		f.Core[v] = float64(core[v])
		if d >= 2 {
			f.Clustering[v] = 2 * float64(tri[v]) / (float64(d) * float64(d-1))
		}
	}
	return f
}

// Matrix returns the n×FeatureDim feature matrix in row-major float32 form,
// ready for GNN input.
func (f *StructuralFeatures) Matrix() [][]float32 {
	n := len(f.Degree)
	m := make([][]float32, n)
	for v := 0; v < n; v++ {
		m[v] = []float32{
			float32(f.Degree[v]), float32(f.LogDegree[v]),
			float32(f.Clustering[v]), float32(f.Core[v]), float32(f.Triangles[v]),
		}
	}
	return m
}
