// Package gnn implements graph neural network models (GCN, GraphSAGE, GAT)
// with exact manual backpropagation, plus the training regimes the paper's
// Section 3 contrasts: full-graph training, neighborhood-sampled minibatch
// training (Euler/AliGraph/DistDGL-style), and AGL-style k-hop subgraph
// materialisation. Each graph-convolution layer follows the two-stage
// structure the paper describes — Graph Data Retrieving (neighbor feature
// aggregation) followed by Model Computation.
//
// Every layer's aggregation is one operator, Agg: a CSR matrix A built once
// per graph and applied with a parallel SpMM kernel, and its adjoint Aᵀ,
// which every backward pass runs. Both directions are gather-form: the
// kernel parallelises over output rows, so each goroutine owns a disjoint
// block of them and nothing scatters with atomics. Neighbour lists are
// sorted and an undirected edge is two arcs, so on an undirected graph Aᵀ
// is applied as A itself; only a directed graph stores a transpose CSR,
// whose rows list their entries by source row ascending. Either way results
// are bitwise identical to the serial kernels at any parallelism level.
package gnn

import (
	"fmt"
	"math"
	"sort"

	"graphsys/internal/graph"
	"graphsys/internal/tensor"
)

// csr is a compressed-sparse-row operator over vertex feature matrices:
// row v of its action is scale[v] · Σ_idx wts[idx]·h[col[idx]]. wts == nil
// means unit weights and scale == nil unit rows.
type csr struct {
	n      int
	rowPtr []int32
	col    []graph.V
	wts    []float32
	scale  []float32
}

// apply computes out = op(h), fully overwritten.
func (c *csr) apply(h, out *tensor.Matrix) {
	c.applyRows(h, out, 0, c.n)
}

// applyRows computes rows [lo, hi) of op(h) into out's rows [0, hi-lo),
// fully overwritten. Rows are independent, each owned by one goroutine and
// accumulated in CSR entry order, so results do not depend on how the row
// range is split or tiled.
func (c *csr) applyRows(h, out *tensor.Matrix, lo, hi int) {
	if h.Rows != c.n {
		panic(fmt.Sprintf("gnn: aggregator input rows %d != vertices %d", h.Rows, c.n))
	}
	if out.Rows != hi-lo || out.Cols != h.Cols {
		panic(fmt.Sprintf("gnn: aggregator output %dx%d, want %dx%d", out.Rows, out.Cols, hi-lo, h.Cols))
	}
	if b := rowBlocks(c.rowPtr, lo, hi, h.Cols); b != nil {
		runBlocks(b, func(from, to int) { c.applyRange(h, out, lo, from, to) })
	} else {
		c.applyRange(h, out, lo, lo, hi)
	}
}

// applyRange is the serial kernel over rows [from, to), writing row v into
// out's row v-base.
func (c *csr) applyRange(h, out *tensor.Matrix, base, from, to int) {
	for v := from; v < to; v++ {
		or := out.Row(v - base)
		s, e := c.rowPtr[v], c.rowPtr[v+1]
		var wts []float32
		if c.wts != nil {
			wts = c.wts[s:e]
		}
		SpMMRow(or, c.col[s:e], wts, h, nil, nil)
		if c.scale != nil {
			inv := c.scale[v]
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

// transpose returns the CSR of c's transpose, which has no row scale.
// Entries within each output row are ordered by source row v
// ascending — exactly the order the serial scatter loop (v outer, ascending)
// used to touch that row, so the gather-form adjoint reproduces it bitwise.
func (c *csr) transpose() *csr {
	t := &csr{n: c.n, rowPtr: make([]int32, c.n+1), col: make([]graph.V, len(c.col))}
	if c.wts != nil {
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
				t.wts[p] = c.wts[idx]
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

// Agg is the graph operator of every GNN layer here: A over vertex feature
// rows with an optional per-row scale s. ApplyInto computes diag(s)·A·H and
// ApplyTInto the adjoint Aᵀ·diag(s)·dY, which every layer's backward runs.
// Row v of A lists g.Neighbors(v) in order, then v itself for the kinds
// with self-loops. The graph builder keeps neighbour lists sorted and stores
// an undirected edge as two arcs, and every weight here is symmetric in its
// two ends, so on an undirected graph Aᵀ equals A and is applied as A
// itself; only a directed graph stores a transpose CSR, built once.
type Agg struct {
	csr      // A and the row scale
	t   *csr // Aᵀ, sharing A's arrays on an undirected graph; nil for GAT
}

// newAgg builds g's operator: row v lists g.Neighbors(v), then v itself
// when selfLoop is set. norm, which needs selfLoop, weighs entry (v, u)
// float32(1/√(|N(v)|+1) · 1/√(|N(u)|+1)), making A GCN's Â; otherwise
// weights are unit. It sets no row scale and no adjoint.
func newAgg(g *graph.Graph, selfLoop, norm bool) *Agg {
	n, nnz := g.NumVertices(), int(g.NumArcs())
	if selfLoop {
		nnz += n
	}
	a := &Agg{csr: csr{n: n, rowPtr: make([]int32, n+1), col: make([]graph.V, 0, nnz)}}
	var invSqrt []float64
	if norm {
		invSqrt = make([]float64, n)
		for v := range invSqrt {
			invSqrt[v] = 1 / math.Sqrt(float64(g.Degree(graph.V(v))+1))
		}
		a.wts = make([]float32, 0, nnz)
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(graph.V(v))
		a.col = append(a.col, ns...)
		if selfLoop {
			a.col = append(a.col, graph.V(v))
		}
		if norm {
			for _, u := range ns {
				a.wts = append(a.wts, float32(invSqrt[v]*invSqrt[u]))
			}
			a.wts = append(a.wts, float32(invSqrt[v]*invSqrt[v])) // the self-loop
		}
		a.rowPtr[v+1] = int32(len(a.col))
	}
	return a
}

// withAdjoint sets a's adjoint Aᵀ, which has no row scale: A's own entries
// when g is undirected, else their transpose CSR.
func (a *Agg) withAdjoint(g *graph.Graph) *Agg {
	a.t = &csr{n: a.n, rowPtr: a.rowPtr, col: a.col, wts: a.wts}
	if g.Directed() {
		a.t = a.t.transpose()
	}
	return a
}

// NewNormAdj builds GCN's normalised adjacency with self-loops,
// Â = D̃^(-1/2) (A+I) D̃^(-1/2), the self-loop last in each row.
func NewNormAdj(g *graph.Graph) *Agg { return newAgg(g, true, true).withAdjoint(g) }

// NewMeanAgg builds GraphSAGE's mean aggregator over open neighbourhoods:
// unit weights and row scale 1/|N(v)|, applied after the sum, and zero rows
// for isolated vertices.
func NewMeanAgg(g *graph.Graph) *Agg {
	a := newAgg(g, false, false)
	a.scale = make([]float32, a.n)
	for v := range a.scale {
		if d := a.rowPtr[v+1] - a.rowPtr[v]; d > 0 {
			a.scale[v] = 1 / float32(d)
		}
	}
	return a.withAdjoint(g)
}

// NewSumAgg builds GIN's sum aggregator over open neighbourhoods.
func NewSumAgg(g *graph.Graph) *Agg { return newAgg(g, false, false).withAdjoint(g) }

// CSR exposes A's entries, or with adjoint set Aᵀ's, for internal/gnndist's
// delayed aggregation, the one kernel outside this package that reads them:
// row v's entries are col[rowPtr[v]:rowPtr[v+1]] with weights aligned. A's
// rows follow g.Neighbors(v) with any self-loop last; Aᵀ's are A's own
// slices on an undirected graph and ordered by source row otherwise. The
// slices are shared with a; callers must not write them.
func (a *Agg) CSR(adjoint bool) (rowPtr []int32, col []graph.V, wts []float32) {
	c := &a.csr
	if adjoint {
		c = a.t
	}
	return c.rowPtr, c.col, c.wts
}

// ApplyInto computes diag(s)·A·H into out (fully overwritten), allocating
// nothing.
func (a *Agg) ApplyInto(h, out *tensor.Matrix) { a.apply(h, out) }

// ApplyTInto computes the adjoint Aᵀ·diag(s)·dY into out (fully
// overwritten), allocating nothing. With a row scale it scales dy's rows in
// place first, so dy must be the caller's scratch; with none it leaves dy
// as it is.
func (a *Agg) ApplyTInto(dy, out *tensor.Matrix) {
	if a.scale != nil {
		for v, s := range a.scale {
			r := dy.Row(v)
			for j := range r {
				r[j] *= s
			}
		}
	}
	a.t.apply(dy, out)
}
