// Package tensor provides the dense float32 matrix type and operations the
// GNN training stack is built on — the stand-in for the BLAS/autograd
// substrate (PyTorch/TensorFlow) used by the surveyed GNN systems. GNN model
// computation is small dense matrix pipelines (the paper notes GNN models are
// small compared to DNNs), so a straightforward row-major implementation
// reproduces the compute structure faithfully.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from row slices (all must have equal length).
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d (%d != %d)", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Xavier returns a matrix initialised with Glorot-uniform values,
// deterministic in seed.
func Xavier(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	limit := float32(math.Sqrt(6.0 / float64(rows+cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a mutable slice view.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SliceRows returns rows [lo, hi) as a matrix view sharing m's data.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// kBlock is the cache-blocking factor along the contraction dimension: the
// kernels process panels of kBlock rows of b (kBlock × Cols floats) so the
// panel stays hot in L1/L2 across the whole row range of a. Blocking keeps
// the per-element accumulation order (k strictly increasing), so blocked and
// naive kernels are bitwise identical.
const kBlock = 128

// narrowCols is the widest output whose row matMulRange accumulates in
// registers: lin2 of a GCN (hidden × classes) is this narrow.
const narrowCols = 8

// MatMul returns a×b. The kernel is cache-blocked and runs on the worker
// pool above SerialWorkThreshold; results are bitwise identical at any
// parallelism level (see the determinism contract in parallel.go).
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes a×b into out (which it zeroes first), allocating
// nothing. out must have shape a.Rows×b.Cols and alias neither input.
func MatMulInto(a, b, out *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto("matmul", out, a.Rows, b.Cols, a, b)
	ParallelFor(a.Rows, int64(a.Rows)*int64(a.Cols)*int64(b.Cols), func(lo, hi int) {
		matMulRange(a, b, out, lo, hi)
	})
}

// matMulRange computes output rows [lo, hi) of a×b: the serial kernel every
// parallelism level reproduces exactly. For each element the contraction
// index k increases monotonically (across and within k-panels) and terms
// with a zero a-entry are skipped, matching the naive i-k-j loop bit for
// bit. Terms go four at a time through Axpy4; a group of four holding a zero
// a-entry goes one term at a time instead.
func matMulRange(a, b, out *Matrix, lo, hi int) {
	if b.Cols <= narrowCols {
		matMulNarrow(a, b, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		clear(out.Row(i))
	}
	for k0 := 0; k0 < a.Cols; k0 += kBlock {
		k1 := min(k0+kBlock, a.Cols)
		for i := lo; i < hi; i++ {
			ar := a.Row(i)[:k1]
			or := out.Row(i)
			k := k0
			for ; k+4 <= k1; k += 4 {
				a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
				if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
					for d := k; d < k+4; d++ {
						axpyNonzero(or, ar[d], b.Row(d))
					}
					continue
				}
				Axpy4(or, a0, a1, a2, a3, b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
			}
			for ; k < k1; k++ {
				axpyNonzero(or, ar[k], b.Row(k))
			}
		}
	}
}

// matMulNarrow is matMulRange for b of at most narrowCols columns: each
// output row is accumulated in eight locals over a whole k-panel, read from
// a zero-padded copy of b's panel, and stored once per panel. The columns
// past b.Cols are computed and dropped.
func matMulNarrow(a, b, out *Matrix, lo, hi int) {
	var panel [kBlock * narrowCols]float32
	for i := lo; i < hi; i++ {
		clear(out.Row(i))
	}
	for k0 := 0; k0 < a.Cols; k0 += kBlock {
		k1 := min(k0+kBlock, a.Cols)
		for k := k0; k < k1; k++ {
			copy(panel[(k-k0)*narrowCols:(k-k0+1)*narrowCols], b.Row(k))
		}
		for i := lo; i < hi; i++ {
			var c [narrowCols]float32
			or := out.Row(i)
			copy(c[:], or)
			c0, c1, c2, c3, c4, c5, c6, c7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
			for d, av := range a.Row(i)[k0:k1] {
				if av == 0 {
					continue
				}
				br := panel[d*narrowCols : d*narrowCols+narrowCols]
				c0 += float32(av * br[0])
				c1 += float32(av * br[1])
				c2 += float32(av * br[2])
				c3 += float32(av * br[3])
				c4 += float32(av * br[4])
				c5 += float32(av * br[5])
				c6 += float32(av * br[6])
				c7 += float32(av * br[7])
			}
			c = [narrowCols]float32{c0, c1, c2, c3, c4, c5, c6, c7}
			copy(or, c[:])
		}
	}
}

// MatMulT1Into computes aᵀ×b into out (which it zeroes first). out must have
// shape a.Cols×b.Cols and alias neither input. Parallel goroutines own
// disjoint output-row blocks (columns of a); each accumulates over the shared
// contraction rows r in the same increasing order as the serial kernel,
// skipping terms whose a-entry is zero. Rows go four at a time through Axpy4;
// for an output row whose four a-entries hold a zero, one row at a time.
func MatMulT1Into(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulT1 shape mismatch %dx%dᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto("matmulT1", out, a.Cols, b.Cols, a, b)
	ParallelFor(a.Cols, int64(a.Rows)*int64(a.Cols)*int64(b.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			clear(out.Row(i))
		}
		r := 0
		for ; r+4 <= a.Rows; r += 4 {
			ar0, ar1, ar2, ar3 := a.Row(r)[:hi], a.Row(r + 1)[:hi], a.Row(r + 2)[:hi], a.Row(r + 3)[:hi]
			br0, br1, br2, br3 := b.Row(r), b.Row(r+1), b.Row(r+2), b.Row(r+3)
			for i := lo; i < hi; i++ {
				a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
				or := out.Row(i)
				if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
					axpyNonzero(or, a0, br0)
					axpyNonzero(or, a1, br1)
					axpyNonzero(or, a2, br2)
					axpyNonzero(or, a3, br3)
					continue
				}
				Axpy4(or, a0, a1, a2, a3, br0, br1, br2, br3)
			}
		}
		for ; r < a.Rows; r++ {
			ar, br := a.Row(r), b.Row(r)
			for i := lo; i < hi; i++ {
				axpyNonzero(out.Row(i), ar[i], br)
			}
		}
	})
}

// MatMulT2Into computes a×bᵀ into out (which it zeroes first). out must have
// shape a.Rows×b.Rows and alias neither input.
func MatMulT2Into(a, b, out *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT2 shape mismatch %dx%d × %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto("matmulT2", out, a.Rows, b.Rows, a, b)
	ParallelFor(a.Rows, int64(a.Rows)*int64(b.Rows)*int64(a.Cols), func(lo, hi int) {
		matMulT2Range(a, b, out, lo, hi)
	})
}

// t2Cols is the widest block of output columns (rows of b) whose transpose
// matMulT2Range holds in one panel.
const t2Cols = 64

// matMulT2Range computes output rows [lo, hi) of a×bᵀ. It copies the
// transpose of a block of at most t2Cols rows of b over one k-panel into a
// fixed-size array, and adds the panel's rows into each output row through
// Axpy4, in k order and with no zero skipping: every element is bitwise the
// dot product Σ_k a[i][k]·b[j][k] summed from zero in k order.
func matMulT2Range(a, b, out *Matrix, lo, hi int) {
	var panel [kBlock * t2Cols]float32
	for i := lo; i < hi; i++ {
		clear(out.Row(i))
	}
	for j0 := 0; j0 < b.Rows; j0 += t2Cols {
		j1 := min(j0+t2Cols, b.Rows)
		w := j1 - j0
		for k0 := 0; k0 < a.Cols; k0 += kBlock {
			k1 := min(k0+kBlock, a.Cols)
			for j := j0; j < j1; j++ {
				for d, v := range b.Row(j)[k0:k1] {
					panel[d*w+j-j0] = v
				}
			}
			for i := lo; i < hi; i++ {
				ar := a.Row(i)[k0:k1]
				or := out.Row(i)[j0:j1]
				d := 0
				for ; d+4 <= len(ar); d += 4 {
					Axpy4(or, ar[d], ar[d+1], ar[d+2], ar[d+3],
						panel[d*w:], panel[(d+1)*w:], panel[(d+2)*w:], panel[(d+3)*w:])
				}
				for ; d < len(ar); d++ {
					Axpy(or, ar[d], panel[d*w:])
				}
			}
		}
	}
}

// checkInto validates the output operand of an *Into kernel: exact shape and
// no aliasing with either input (the kernels zero out first, which would
// destroy an aliased input).
func checkInto(op string, out *Matrix, rows, cols int, ins ...*Matrix) {
	if out.Rows != rows || out.Cols != cols {
		panic(fmt.Sprintf("tensor: %s output %dx%d, want %dx%d", op, out.Rows, out.Cols, rows, cols))
	}
	if len(out.Data) == 0 {
		return
	}
	for _, in := range ins {
		if len(in.Data) > 0 && &in.Data[0] == &out.Data[0] {
			panic(fmt.Sprintf("tensor: %s output aliases an input", op))
		}
	}
}

// Add returns a+b.
func Add(a, b *Matrix) *Matrix {
	sameShape(a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace adds b into a.
func (m *Matrix) AddInPlace(b *Matrix) {
	sameShape(m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// AddScaled adds scale×b into m.
func (m *Matrix) AddScaled(b *Matrix, scale float32) {
	sameShape(m, b)
	for i, v := range b.Data {
		m.Data[i] += scale * v
	}
}

// AddRowVector adds vector v (length Cols) to every row.
func (m *Matrix) AddRowVector(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: row vector length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] += v[j]
		}
	}
}

// ConcatCols returns [a | b] (same row count).
func ConcatCols(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols+b.Cols)
	ConcatColsInto(a, b, out)
	return out
}

// ConcatColsInto writes [a | b] into out, which must be a.Rows×(a.Cols+b.Cols).
func ConcatColsInto(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: concat row mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto("concat", out, a.Rows, a.Cols+b.Cols, a, b)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
}

// SplitColsInto splits m into a (the first a.Cols columns) and b (the rest).
// a and b must have m.Rows rows and a.Cols+b.Cols must equal m.Cols.
func SplitColsInto(m, a, b *Matrix) {
	if a.Cols < 0 || a.Cols > m.Cols {
		panic(fmt.Sprintf("tensor: split at %d out of range for %dx%d", a.Cols, m.Rows, m.Cols))
	}
	checkInto("split", a, m.Rows, a.Cols, m)
	checkInto("split", b, m.Rows, m.Cols-a.Cols, m)
	for i := 0; i < m.Rows; i++ {
		copy(a.Row(i), m.Row(i)[:a.Cols])
		copy(b.Row(i), m.Row(i)[a.Cols:])
	}
}

// SelectRows returns the submatrix with the given rows (in order).
func SelectRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// MaxAbsDiff returns max |a_ij - b_ij|.
func MaxAbsDiff(a, b *Matrix) float64 {
	sameShape(a, b)
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func sameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
