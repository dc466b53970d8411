package gnn

import (
	"graphsys/internal/graph"
	"graphsys/internal/tensor"
)

// SumAgg is sum aggregation over open neighborhoods, stored as CSR built
// once at construction (the old implementation re-derived g.Neighbors(v) on
// every call). For undirected graphs the operator is symmetric, so it is its
// own adjoint, which is what GINLayer.Backward relies on.
type SumAgg struct {
	n   int
	adj *csr
}

// NewSumAgg precomputes the aggregation CSR for g.
func NewSumAgg(g *graph.Graph) *SumAgg {
	n := g.NumVertices()
	nnz := 0
	for v := 0; v < n; v++ {
		nnz += g.Degree(graph.V(v))
	}
	c := &csr{n: n, rowPtr: make([]int32, n+1), col: make([]graph.V, 0, nnz)}
	for v := 0; v < n; v++ {
		c.col = append(c.col, g.Neighbors(graph.V(v))...)
		c.rowPtr[v+1] = int32(len(c.col))
	}
	return &SumAgg{n: n, adj: c}
}

// ApplyInto computes row v = Σ_{u∈N(v)} h_u into a preallocated out (fully
// overwritten).
func (s *SumAgg) ApplyInto(h, out *tensor.Matrix) { s.adj.apply(h, out, nil) }

// GINLayer is the Graph Isomorphism Network layer (Xu et al.), the
// maximally-expressive 1-WL aggregator: h'_v = σ(W·((1+ε)h_v + Σ_{u∈N(v)}
// h_u) + b), with ε fixed to 0 (GIN-0). Sum aggregation distinguishes
// multisets that mean/max aggregators collapse, which is why GIN is the
// standard whole-graph classification backbone.
type GINLayer struct {
	agg *SumAgg
	denseAct

	z  *tensor.Matrix // reused (1+ε)h + A·h buffer (cached by lin)
	dh *tensor.Matrix // reused backward output
}

// Forward computes σ(W·(h + A·h) + b).
func (l *GINLayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	l.z = tensor.Reuse(l.z, h.Rows, h.Cols)
	l.agg.ApplyInto(h, l.z)
	l.z.AddInPlace(h) // (1+ε)h with ε=0
	return l.forward(l.z)
}

// Backward propagates dH = dZ + AᵀdZ (A symmetric for undirected graphs).
func (l *GINLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dz := l.lin.Backward(l.gate(dy))
	l.dh = tensor.Reuse(l.dh, dz.Rows, dz.Cols)
	l.agg.ApplyInto(dz, l.dh)
	l.dh.AddInPlace(dz)
	return l.dh
}

func (l *GINLayer) infer(h *tensor.Matrix, tileRows int) *tensor.Matrix {
	return l.inferTiles(l.agg.n, h.Cols, tileRows, func(in *tensor.Matrix, lo, hi int) {
		l.agg.adj.applyRows(h, in, nil, lo, hi)
		in.AddInPlace(h.SliceRows(lo, hi))
	})
}
