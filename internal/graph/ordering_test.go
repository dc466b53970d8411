package graph

import (
	"math/rand"
	"testing"
)

func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, false)
	for i := 0; i < m; i++ {
		b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
	}
	return b.Build()
}

// naive O(n^3)-ish triangle count for cross-checking
func naiveTriangles(g *Graph) int64 {
	var c int64
	n := g.NumVertices()
	for u := V(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if !g.HasEdge(u, v) {
				continue
			}
			for w := v + 1; int(w) < n; w++ {
				if g.HasEdge(u, w) && g.HasEdge(v, w) {
					c++
				}
			}
		}
	}
	return c
}

func TestTriangleCountSmall(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int64
	}{
		{completeGraph(3), 1},
		{completeGraph(4), 4},
		{completeGraph(5), 10},
		{completeGraph(6), 20},
		{pathGraph(10), 0},
		{NewBuilder(0, false).Build(), 0},
	}
	for i, c := range cases {
		if got := TriangleCount(c.g); got != c.want {
			t.Errorf("case %d: TriangleCount=%d want %d", i, got, c.want)
		}
	}
}

func TestTriangleCountMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(30, 120, seed)
		if got, want := TriangleCount(g), naiveTriangles(g); got != want {
			t.Fatalf("seed %d: fast=%d naive=%d", seed, got, want)
		}
	}
}

func TestLocalTriangles(t *testing.T) {
	g := completeGraph(4)
	tri := LocalTriangles(g)
	for v, c := range tri {
		if c != 3 { // each vertex of K4 is in C(3,2)=3 triangles
			t.Fatalf("vertex %d: %d triangles, want 3", v, c)
		}
	}
	// sum of locals = 3 * total
	var sum int64
	for _, c := range tri {
		sum += c
	}
	if sum != 3*TriangleCount(g) {
		t.Fatalf("local sum %d != 3*total %d", sum, 3*TriangleCount(g))
	}
}

func TestCoreNumbers(t *testing.T) {
	// K4 attached to a path: core numbers 3 for clique, then 1s
	b := NewBuilder(7, false)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(V(u), V(v))
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.Build()
	core := CoreNumbers(g)
	for v := 0; v < 4; v++ {
		if core[v] != 3 {
			t.Fatalf("clique vertex %d core = %d, want 3", v, core[v])
		}
	}
	for v := 4; v < 7; v++ {
		if core[v] != 1 {
			t.Fatalf("path vertex %d core = %d, want 1", v, core[v])
		}
	}
}

func TestCoreNumbersInvariant(t *testing.T) {
	// invariant: in the subgraph induced by {v : core[v] >= k}, every vertex
	// has degree >= k, for k = max core.
	g := randomGraph(60, 400, 7)
	core := CoreNumbers(g)
	var kmax int32
	for _, c := range core {
		if c > kmax {
			kmax = c
		}
	}
	var keep []V
	inSet := make([]bool, g.NumVertices())
	for v, c := range core {
		if c >= kmax {
			keep = append(keep, V(v))
			inSet[v] = true
		}
	}
	for _, v := range keep {
		d := 0
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				d++
			}
		}
		if int32(d) < kmax {
			t.Fatalf("vertex %d in %d-core has degree %d", v, kmax, d)
		}
	}
}

func TestDegeneracyOrder(t *testing.T) {
	g := completeGraph(5)
	order, d := DegeneracyOrder(g)
	if d != 4 {
		t.Fatalf("K5 degeneracy = %d, want 4", d)
	}
	if len(order) != 5 {
		t.Fatalf("order length %d", len(order))
	}
	seen := map[V]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate %d in order", v)
		}
		seen[v] = true
	}
}

func TestConnectedComponents(t *testing.T) {
	// two components: triangle {0,1,2} and edge {3,4}; isolated 5
	g := FromEdges(6, [][2]V{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
	labels, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("triangle split across components")
	}
	if labels[3] != labels[4] {
		t.Fatal("edge split across components")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("isolated vertex merged")
	}
}

func TestStructuralFeatures(t *testing.T) {
	g := completeGraph(4)
	f := ComputeStructuralFeatures(g)
	for v := 0; v < 4; v++ {
		if f.Degree[v] != 3 {
			t.Fatalf("degree[%d]=%f", v, f.Degree[v])
		}
		if f.Clustering[v] != 1.0 {
			t.Fatalf("clustering[%d]=%f want 1", v, f.Clustering[v])
		}
		if f.Core[v] != 3 {
			t.Fatalf("core[%d]=%f", v, f.Core[v])
		}
	}
	m := f.Matrix()
	if len(m) != 4 || len(m[0]) != FeatureDim {
		t.Fatal("matrix shape wrong")
	}
}
