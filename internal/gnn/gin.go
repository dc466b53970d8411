package gnn

import "graphsys/internal/tensor"

// GINLayer is the Graph Isomorphism Network layer (Xu et al.), the
// maximally-expressive 1-WL aggregator: h'_v = σ(W·((1+ε)h_v + Σ_{u∈N(v)}
// h_u) + b), with ε fixed to 0 (GIN-0). Sum aggregation distinguishes
// multisets that mean/max aggregators collapse, which is why GIN is the
// standard whole-graph classification backbone.
type GINLayer struct {
	agg *Agg // NewSumAgg
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

// Backward propagates dH = dZ + Aᵀ·dZ.
func (l *GINLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dz := l.lin.Backward(l.gate(dy))
	l.dh = tensor.Reuse(l.dh, dz.Rows, dz.Cols)
	l.agg.ApplyTInto(dz, l.dh)
	l.dh.AddInPlace(dz)
	return l.dh
}

func (l *GINLayer) infer(h *tensor.Matrix, tileRows int) *tensor.Matrix {
	return l.inferTiles(l.agg.n, h.Cols, tileRows, func(in *tensor.Matrix, lo, hi int) {
		l.agg.applyRows(h, in, lo, hi)
		in.AddInPlace(h.SliceRows(lo, hi))
	})
}
