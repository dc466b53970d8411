// Package gnn implements graph neural network models (GCN, GraphSAGE, GAT)
// with exact manual backpropagation, plus the training regimes the paper's
// Section 3 contrasts: full-graph training, neighborhood-sampled minibatch
// training (Euler/AliGraph/DistDGL-style), and AGL-style k-hop subgraph
// materialisation. Each graph-convolution layer follows the two-stage
// structure the paper describes — Graph Data Retrieving (neighbor feature
// aggregation) followed by Model Computation.
//
// Aggregators are stored as CSR built once at construction and applied with
// parallel SpMM kernels. Both directions are gather-form: the forward kernel
// parallelises over destination rows, and the backward pass uses a transpose
// CSR (built at construction) so that each goroutine owns a disjoint block of
// OUTPUT rows instead of scattering with atomics. Per-row entries of the
// transpose are ordered by source row ascending — the same order the old
// serial scatter visited them — so results are bitwise identical to the
// serial kernels at any parallelism level.
package gnn

import (
	"fmt"
	"math"
	"sort"

	"graphsys/internal/graph"
	"graphsys/internal/tensor"
)

// csr is a compressed-sparse-row operator over vertex feature matrices.
// wts == nil means unit weights.
type csr struct {
	n      int
	rowPtr []int32
	col    []graph.V
	wts    []float32
}

// apply computes out = op(h) where row v of the result is
// rowScale[v] · Σ_idx wts[idx]·h[col[idx]] (rowScale/wts nil = unit). out is
// fully overwritten.
func (c *csr) apply(h, out *tensor.Matrix, rowScale []float32) {
	c.applyRows(h, out, rowScale, 0, c.n)
}

// applyRows computes rows [lo, hi) of op(h) into out's rows [0, hi-lo),
// fully overwritten. Rows are independent, each owned by one goroutine and
// accumulated in CSR entry order, so results do not depend on how the row
// range is split or tiled.
func (c *csr) applyRows(h, out *tensor.Matrix, rowScale []float32, lo, hi int) {
	if h.Rows != c.n {
		panic(fmt.Sprintf("gnn: aggregator input rows %d != vertices %d", h.Rows, c.n))
	}
	if out.Rows != hi-lo || out.Cols != h.Cols {
		panic(fmt.Sprintf("gnn: aggregator output %dx%d, want %dx%d", out.Rows, out.Cols, hi-lo, h.Cols))
	}
	if b := rowBlocks(c.rowPtr, lo, hi, h.Cols); b != nil {
		runBlocks(b, func(from, to int) { c.applyRange(h, out, rowScale, lo, from, to) })
	} else {
		c.applyRange(h, out, rowScale, lo, lo, hi)
	}
}

// applyRange is the serial kernel over rows [from, to), writing row v into
// out's row v-base.
func (c *csr) applyRange(h, out *tensor.Matrix, rowScale []float32, base, from, to int) {
	for v := from; v < to; v++ {
		or := out.Row(v - base)
		s, e := c.rowPtr[v], c.rowPtr[v+1]
		var wts []float32
		if c.wts != nil {
			wts = c.wts[s:e]
		}
		SpMMRow(or, c.col[s:e], wts, h, nil, nil)
		if rowScale != nil {
			inv := rowScale[v]
			for j := range or {
				or[j] *= inv
			}
		}
	}
}

// rowBlocks splits rows [lo, hi) of a CSR into at most tensor.Parallelism()
// contiguous blocks of roughly equal nonzero count and returns their
// boundaries, or nil when the work (nonzeros × width) is below
// tensor.SerialWorkThreshold and the rows should run inline. Boundaries
// affect load balance only, never results.
func rowBlocks(rowPtr []int32, lo, hi, width int) []int {
	nnz := int64(rowPtr[hi] - rowPtr[lo])
	p := tensor.Parallelism()
	if p <= 1 || hi-lo <= 1 || nnz*int64(width) < tensor.SerialWorkThreshold {
		return nil
	}
	bounds := splitRowsByNNZ(rowPtr[lo:hi+1], p)
	for i := range bounds {
		bounds[i] += lo
	}
	return bounds
}

// runBlocks runs fn on every block [bounds[i], bounds[i+1]) concurrently;
// fn must treat its block as exclusively owned.
func runBlocks(bounds []int, fn func(lo, hi int)) {
	fns := make([]func(), len(bounds)-1)
	for i := range fns {
		lo, hi := bounds[i], bounds[i+1]
		fns[i] = func() { fn(lo, hi) }
	}
	tensor.ParallelDo(fns)
}

// SpMMRow overwrites or with one row of a sparse-dense product: the sum over
// the row's entries k, in order, of wts[k]·src.Row(col[k]), where src is alt
// if useAlt[k] is set and h otherwise. wts nil means unit weights and useAlt
// nil means h throughout. Entries go four at a time through tensor.Axpy4, so
// each element of or is loaded and stored once per four entries while its
// terms are added in entry order, bitwise as one entry at a time would. This
// is the row kernel of every CSR aggregation here and in internal/gnndist.
func SpMMRow(or []float32, col []graph.V, wts []float32, h, alt *tensor.Matrix, useAlt []bool) {
	clear(or)
	k := 0
	for ; k+4 <= len(col); k += 4 {
		w0, x0 := spmmTerm(k, col, wts, h, alt, useAlt)
		w1, x1 := spmmTerm(k+1, col, wts, h, alt, useAlt)
		w2, x2 := spmmTerm(k+2, col, wts, h, alt, useAlt)
		w3, x3 := spmmTerm(k+3, col, wts, h, alt, useAlt)
		tensor.Axpy4(or, w0, w1, w2, w3, x0, x1, x2, x3)
	}
	for ; k < len(col); k++ {
		w, x := spmmTerm(k, col, wts, h, alt, useAlt)
		tensor.Axpy(or, w, x)
	}
}

// spmmTerm returns SpMMRow's weight and source row for entry k.
func spmmTerm(k int, col []graph.V, wts []float32, h, alt *tensor.Matrix, useAlt []bool) (float32, []float32) {
	w := float32(1)
	if wts != nil {
		w = wts[k]
	}
	if useAlt != nil && useAlt[k] {
		return w, alt.Row(int(col[k]))
	}
	return w, h.Row(int(col[k]))
}

// transpose returns the CSR of the adjoint operator. Entry weights are the
// source entry's weight times srcScale[v] (either may be nil = unit; both nil
// keeps wts nil). Entries within each output row are ordered by source row v
// ascending — exactly the order the serial scatter loop (v outer, ascending)
// used to touch that row, so the gather-form backward reproduces it bitwise.
func (c *csr) transpose(srcScale []float32) *csr {
	t := &csr{n: c.n, rowPtr: make([]int32, c.n+1), col: make([]graph.V, len(c.col))}
	if c.wts != nil || srcScale != nil {
		t.wts = make([]float32, len(c.col))
	}
	for _, u := range c.col {
		t.rowPtr[u+1]++
	}
	for u := 0; u < c.n; u++ {
		t.rowPtr[u+1] += t.rowPtr[u]
	}
	next := make([]int32, c.n)
	copy(next, t.rowPtr[:c.n])
	for v := 0; v < c.n; v++ {
		for idx := c.rowPtr[v]; idx < c.rowPtr[v+1]; idx++ {
			u := c.col[idx]
			p := next[u]
			next[u]++
			t.col[p] = graph.V(v)
			if t.wts != nil {
				w := float32(1)
				if c.wts != nil {
					w = c.wts[idx]
				}
				if srcScale != nil {
					w *= srcScale[v]
				}
				t.wts[p] = w
			}
		}
	}
	return t
}

// splitRowsByNNZ partitions the rows [0, n) of rowPtr (n+1 offsets, which
// need not start at 0) into at most p contiguous blocks of roughly equal
// nonzero count (power-law graphs concentrate edges on hub rows, so
// equal-row blocks would leave most workers idle). Returns block boundaries;
// boundaries affect load balance only, never results.
func splitRowsByNNZ(rowPtr []int32, p int) []int {
	n := len(rowPtr) - 1
	if p > n {
		p = n
	}
	base := int64(rowPtr[0])
	total := int64(rowPtr[n]) - base
	bounds := append(make([]int, 0, p+1), 0)
	for k := 1; k < p; k++ {
		target := total * int64(k) / int64(p)
		r := sort.Search(n, func(i int) bool { return int64(rowPtr[i])-base >= target })
		if r <= bounds[len(bounds)-1] {
			continue
		}
		if r >= n {
			break
		}
		bounds = append(bounds, r)
	}
	return append(bounds, n)
}

// NormAdj is the symmetric-normalised adjacency with self-loops used by GCN:
// Â = D̃^(-1/2) (A+I) D̃^(-1/2), stored as CSR. Â is symmetric, so it is its
// own transpose in the backward pass.
type NormAdj struct {
	n   int
	adj *csr
}

// NewNormAdj precomputes Â for g.
func NewNormAdj(g *graph.Graph) *NormAdj {
	n := g.NumVertices()
	invSqrt := make([]float64, n)
	nnz := 0
	for v := 0; v < n; v++ {
		d := g.Degree(graph.V(v))
		invSqrt[v] = 1 / math.Sqrt(float64(d+1))
		nnz += d + 1
	}
	c := &csr{
		n:      n,
		rowPtr: make([]int32, n+1),
		col:    make([]graph.V, 0, nnz),
		wts:    make([]float32, 0, nnz),
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.V(v)) {
			c.col = append(c.col, u)
			c.wts = append(c.wts, float32(invSqrt[v]*invSqrt[u]))
		}
		c.col = append(c.col, graph.V(v)) // self-loop last, as before
		c.wts = append(c.wts, float32(invSqrt[v]*invSqrt[v]))
		c.rowPtr[v+1] = int32(len(c.col))
	}
	return &NormAdj{n: n, adj: c}
}

// CSR exposes Â's entries for internal/gnndist's delayed aggregation, the
// one kernel outside this package that reads them: row v's entries are
// col[rowPtr[v]:rowPtr[v+1]] with weights aligned, in g.Neighbors(v) order
// with the self-loop last. The slices are shared with a; callers must not
// write them.
func (a *NormAdj) CSR() (rowPtr []int32, col []graph.V, wts []float32) {
	return a.adj.rowPtr, a.adj.col, a.adj.wts
}

// ApplyInto computes Â·H into out (fully overwritten), allocating nothing:
// the Propagation a GCN layer runs in both directions.
func (a *NormAdj) ApplyInto(h, out *tensor.Matrix) { a.adj.apply(h, out, nil) }

// MeanAgg is GraphSAGE's mean aggregator over (open) neighborhoods. The
// neighbor lists are hoisted into CSR once at construction (the old
// implementation re-derived g.Neighbors(v) on every call); the forward pass
// keeps the sum-then-scale evaluation order (Σh)·(1/|N(v)|) of the serial
// kernel, and isolated vertices still produce zero rows.
type MeanAgg struct {
	n    int
	adj  *csr      // unit-weight open neighborhoods
	adjT *csr      // transpose with weights 1/|N(src)|
	inv  []float32 // 1/|N(v)|, 0 for isolated vertices
}

// NewMeanAgg precomputes the aggregation CSR (and its transpose) for g.
func NewMeanAgg(g *graph.Graph) *MeanAgg {
	n := g.NumVertices()
	m := &MeanAgg{n: n, inv: make([]float32, n)}
	nnz := 0
	for v := 0; v < n; v++ {
		d := g.Degree(graph.V(v))
		nnz += d
		if d > 0 {
			m.inv[v] = 1 / float32(d)
		}
	}
	c := &csr{n: n, rowPtr: make([]int32, n+1), col: make([]graph.V, 0, nnz)}
	for v := 0; v < n; v++ {
		c.col = append(c.col, g.Neighbors(graph.V(v))...)
		c.rowPtr[v+1] = int32(len(c.col))
	}
	m.adj = c
	m.adjT = c.transpose(m.inv)
	return m
}

// ApplyInto computes row v = mean of h over N(v) (zeros for isolated
// vertices) into a preallocated out (fully overwritten).
func (m *MeanAgg) ApplyInto(h, out *tensor.Matrix) { m.adj.apply(h, out, m.inv) }

// ApplyTInto computes the transpose action (the backward pass) into a
// preallocated out (fully overwritten): out_u = Σ_{v : u∈N(v)} dy_v / |N(v)|.
// For undirected graphs this equals Σ_{v∈N(u)} dy_v / |N(v)|.
func (m *MeanAgg) ApplyTInto(dy, out *tensor.Matrix) { m.adjT.apply(dy, out, nil) }
