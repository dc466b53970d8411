// Matrix buffer reuse: a shape-checked helper (Reuse) for the buffers a
// layer owns across training steps, which takes the steady-state allocation
// rate of a training epoch to near zero without changing any numeric result:
// reused buffers are always fully overwritten before use.
package tensor

// Reuse returns a rows×cols matrix over m's backing array when its capacity
// covers rows×cols — m itself when the shape is unchanged, else a new header
// over the same array — and a fresh zero matrix only when the buffer must
// grow. It is the buffer-reuse primitive for layer-owned activations and
// gradients, and it only grows: a model rebound to a batch no larger than
// one it has run allocates no buffer. On the reuse path contents are STALE,
// and the old header's view aliases the new one — callers must fully
// overwrite the result and stop using m.
func Reuse(m *Matrix, rows, cols int) *Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	if rows >= 0 && cols >= 0 && m != nil && rows*cols <= cap(m.Data) {
		return &Matrix{Rows: rows, Cols: cols, Data: m.Data[:rows*cols]}
	}
	return New(rows, cols)
}
