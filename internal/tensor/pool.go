// Matrix buffer recycling: a size-bucketed sync.Pool for short-lived kernel
// scratch (Get/Put) and a shape-checked reuse helper (Reuse) for buffers a
// layer owns across training steps. Together they take the steady-state
// allocation rate of a training epoch to near zero without changing any
// numeric result: recycled buffers are always fully overwritten before use.
package tensor

import (
	"math/bits"
	"sync"
)

// bufPools[b] holds float32 buffers with capacity in [2^b, 2^(b+1)).
// Buffers allocated by Get always have power-of-two capacity, so a buffer
// put back into bucket b satisfies any later Get resolving to bucket b.
var bufPools [33]sync.Pool

// Get returns a rows×cols matrix whose backing buffer may be recycled from a
// previous Put. Contents are UNSPECIFIED — callers must fully overwrite them
// (the *Into kernels zero their output first, so they compose directly).
func Get(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	need := rows * cols
	if need == 0 {
		return &Matrix{Rows: rows, Cols: cols}
	}
	b := bits.Len(uint(need - 1))
	if v := bufPools[b].Get(); v != nil {
		return &Matrix{Rows: rows, Cols: cols, Data: v.([]float32)[:need]}
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, need, 1<<b)}
}

// Put recycles m's backing buffer for a later Get. The caller must not use m
// (or any row view of it) afterwards. Putting a matrix not obtained from Get
// is allowed; its buffer joins the bucket its capacity supports.
func Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	c := cap(m.Data)
	b := bits.Len(uint(c)) - 1 // floor log2: every buffer here has cap >= 2^b
	bufPools[b].Put(m.Data[:0:c])
}

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
