package gnn

import "graphsys/internal/tensor"

// Allocating forms of the operator's actions, for this package's tests; the
// layers run the Into forms on their own buffers.

// Apply returns diag(s)·A·h in a new matrix.
func (a *Agg) Apply(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.n, h.Cols)
	a.ApplyInto(h, out)
	return out
}

// ApplyT returns the adjoint Aᵀ·diag(s)·dy in a new matrix, leaving dy as it
// is.
func (a *Agg) ApplyT(dy *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.n, dy.Cols)
	a.ApplyTInto(dy.Clone(), out)
	return out
}
