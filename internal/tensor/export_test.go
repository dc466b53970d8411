package tensor

// Allocating forms of MatMulT1Into, MatMulT2Into and SplitColsInto, and a
// materialised transpose to check the first two against, for this package's
// tests; the engines call the Into kernels on their own buffers.

// T returns the transpose.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MatMulT1 returns aᵀ×b without materialising the transpose.
func MatMulT1(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulT1Into(a, b, out)
	return out
}

// MatMulT2 returns a×bᵀ without materialising the transpose.
func MatMulT2(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulT2Into(a, b, out)
	return out
}

// SplitCols splits m into the first `at` columns and the rest.
func SplitCols(m *Matrix, at int) (*Matrix, *Matrix) {
	a, b := New(m.Rows, at), New(m.Rows, m.Cols-at)
	SplitColsInto(m, a, b)
	return a, b
}
