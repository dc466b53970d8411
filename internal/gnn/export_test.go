package gnn

import "graphsys/internal/tensor"

// Allocating forms of the aggregators' actions, for this package's tests;
// the layers run the Into forms on their own buffers.

// Apply returns Â·h in a new matrix.
func (a *NormAdj) Apply(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.n, h.Cols)
	a.ApplyInto(h, out)
	return out
}

// Apply returns MeanAgg's action on h in a new matrix.
func (m *MeanAgg) Apply(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.n, h.Cols)
	m.ApplyInto(h, out)
	return out
}

// Apply returns SumAgg's action on h in a new matrix.
func (s *SumAgg) Apply(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(s.n, h.Cols)
	s.ApplyInto(h, out)
	return out
}

// ApplyT returns MeanAgg's transpose action on dy in a new matrix.
func (m *MeanAgg) ApplyT(dy *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.n, dy.Cols)
	m.ApplyTInto(dy, out)
	return out
}

// ApplyT returns SumAgg's transpose action out_u = Σ_{v : u∈N(v)} dy_v in a
// new matrix, through a transpose CSR built for the call (GINLayer relies on
// the operator being symmetric and builds none).
func (s *SumAgg) ApplyT(dy *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(s.n, dy.Cols)
	s.adj.transpose(nil).apply(dy, out, nil)
	return out
}
