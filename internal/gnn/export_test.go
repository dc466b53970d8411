package gnn

import "graphsys/internal/tensor"

// Allocating forms of the aggregators' transpose actions, for this package's
// tests; the layers call ApplyTInto on their own buffers.

// ApplyT returns MeanAgg's transpose action on dy in a new matrix.
func (m *MeanAgg) ApplyT(dy *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.n, dy.Cols)
	m.ApplyTInto(dy, out)
	return out
}

// ApplyT returns SumAgg's transpose action on dy in a new matrix.
func (s *SumAgg) ApplyT(dy *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(s.n, dy.Cols)
	s.ApplyTInto(dy, out)
	return out
}
