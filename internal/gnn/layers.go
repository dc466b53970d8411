package gnn

import (
	"math"

	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// Layer is one graph-convolution layer with explicit backward.
//
// Layers own their output buffers and reuse them across training steps
// (shapes are stable), so steady-state epochs allocate nothing; a returned
// matrix is valid until the next call of the same method on the same layer.
//
// A hidden layer's activation (nn.ReLU) works in place: Forward rectifies
// the layer's own dense or attention output and returns it, and Backward
// gates dy in place before using it. So Backward may overwrite the dy it is
// given; Model.Backward passes each layer the gradient matrix the layer
// above returned, which that layer rewrites before reading it again.
type Layer interface {
	Forward(h *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
	Params() []*nn.Param
}

// GCNLayer computes σ(Â·H·W + b) (Kipf & Welling).
type GCNLayer struct {
	adj  *NormAdj
	lin  *nn.Dense
	act  *nn.ReLU
	last bool // last layer: no activation (logits)

	agg  *tensor.Matrix // reused Â·H buffer (cached by lin for backward)
	dAgg *tensor.Matrix // reused backward Â·dZ buffer
}

// newGCNLayer builds a GCN layer over the operator adj.
func newGCNLayer(adj *NormAdj, in, out int, last bool, seed int64) *GCNLayer {
	return &GCNLayer{adj: adj, lin: nn.NewDense(in, out, seed), act: &nn.ReLU{}, last: last}
}

// Forward runs graph data retrieving (Â·H) then model computation (·W, σ).
func (l *GCNLayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	l.agg = tensor.Reuse(l.agg, h.Rows, h.Cols)
	l.adj.ApplyInto(h, l.agg)
	z := l.lin.Forward(l.agg)
	if l.last {
		return z
	}
	return l.act.Forward(z)
}

// Backward propagates through σ, W and Â (Â is symmetric).
func (l *GCNLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if !l.last {
		dy = l.act.Backward(dy)
	}
	dz := l.lin.Backward(dy)
	l.dAgg = tensor.Reuse(l.dAgg, dz.Rows, dz.Cols)
	l.adj.ApplyInto(dz, l.dAgg)
	return l.dAgg
}

// Params returns the layer parameters.
func (l *GCNLayer) Params() []*nn.Param { return l.lin.Params() }

// SAGELayer is the GraphSAGE mean-aggregator layer from the paper's §3
// equation: h'_v = σ(W·CONCAT(h_v, mean_{u∈N(v)} h_u) + b).
type SAGELayer struct {
	agg  *MeanAgg
	lin  *nn.Dense
	act  *nn.ReLU
	last bool
	inD  int

	hn     *tensor.Matrix // reused mean-aggregated features
	concat *tensor.Matrix // reused [h | hn] (cached by lin for backward)
	dSelf  *tensor.Matrix // reused split buffers
	dN     *tensor.Matrix
	dH     *tensor.Matrix // reused backward output
}

// newSAGELayer builds a GraphSAGE layer over the aggregator agg.
func newSAGELayer(agg *MeanAgg, in, out int, last bool, seed int64) *SAGELayer {
	return &SAGELayer{agg: agg, lin: nn.NewDense(2*in, out, seed), act: &nn.ReLU{}, last: last, inD: in}
}

// Forward aggregates neighbor features and applies the dense transform.
func (l *SAGELayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	l.hn = tensor.Reuse(l.hn, h.Rows, h.Cols)
	l.agg.ApplyInto(h, l.hn)
	l.concat = tensor.Reuse(l.concat, h.Rows, 2*h.Cols)
	tensor.ConcatColsInto(h, l.hn, l.concat)
	z := l.lin.Forward(l.concat)
	if l.last {
		return z
	}
	return l.act.Forward(z)
}

// Backward splits the concat gradient into self and neighbor parts.
func (l *SAGELayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if !l.last {
		dy = l.act.Backward(dy)
	}
	dConcat := l.lin.Backward(dy)
	l.dSelf = tensor.Reuse(l.dSelf, dConcat.Rows, l.inD)
	l.dN = tensor.Reuse(l.dN, dConcat.Rows, dConcat.Cols-l.inD)
	tensor.SplitColsInto(dConcat, l.dSelf, l.dN)
	l.dH = tensor.Reuse(l.dH, dConcat.Rows, l.inD)
	l.agg.ApplyTInto(l.dN, l.dH)
	l.dH.AddInPlace(l.dSelf)
	return l.dH
}

// Params returns the layer parameters.
func (l *SAGELayer) Params() []*nn.Param { return l.lin.Params() }

// GATLayer is a single-head graph attention layer (Veličković et al.):
// e_uv = LeakyReLU(aᴸ·z_u + aᴿ·z_v) over u ∈ N(v)∪{v}, α = softmax_u,
// out_v = σ(Σ_u α_uv z_u), where z = H·W. The neighborhoods (with self-loop
// last) are hoisted into a flat CSR at construction, and the attention
// coefficient caches are flat nnz-length arrays instead of per-vertex
// allocations. The forward pass is parallel over destination vertices (each
// owns its out/alpha rows — deterministic at any worker count); the backward
// pass scatters into arbitrary neighbor rows and stays serial.
type GATLayer struct {
	n        int
	rowPtr   []int32 // CSR over N(v)∪{v}, self-loop last
	nbrs     []graph.V
	W        *nn.Param
	AL, AR   *nn.Param
	last     bool
	negSlope float32

	// caches and reused buffers
	h      *tensor.Matrix
	z      *tensor.Matrix
	alpha  []float32 // flat, aligned with nbrs: attention over N(v)∪{v}
	pre    []float32 // flat pre-LeakyReLU scores
	sL, sR []float32
	out    *tensor.Matrix
	act    *nn.ReLU

	dz     *tensor.Matrix
	dx     *tensor.Matrix
	dsL    []float32
	dsR    []float32
	dalpha []float32 // scratch, cap = max row length
}

// gatAdj is GAT's neighbourhood CSR over N(v)∪{v}, self-loop last, with the
// longest row's length.
type gatAdj struct {
	rowPtr []int32
	nbrs   []graph.V
	maxRow int
}

func newGATAdj(g *graph.Graph) *gatAdj {
	n := g.NumVertices()
	nnz := 0
	a := &gatAdj{rowPtr: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		d := g.Degree(graph.V(v)) + 1
		nnz += d
		if d > a.maxRow {
			a.maxRow = d
		}
	}
	a.nbrs = make([]graph.V, 0, nnz)
	for v := 0; v < n; v++ {
		a.nbrs = append(a.nbrs, g.Neighbors(graph.V(v))...)
		a.nbrs = append(a.nbrs, graph.V(v)) // self-loop last
		a.rowPtr[v+1] = int32(len(a.nbrs))
	}
	return a
}

// newGATLayer builds a single-head GAT layer over the neighbourhoods adj.
func newGATLayer(adj *gatAdj, in, out int, last bool, seed int64) *GATLayer {
	n, nnz := len(adj.rowPtr)-1, len(adj.nbrs)
	return &GATLayer{
		n:        n,
		rowPtr:   adj.rowPtr,
		nbrs:     adj.nbrs,
		W:        nn.NewParam(tensor.Xavier(in, out, seed)),
		AL:       nn.NewParam(tensor.Xavier(1, out, seed+1)),
		AR:       nn.NewParam(tensor.Xavier(1, out, seed+2)),
		last:     last,
		negSlope: 0.2,
		act:      &nn.ReLU{},
		alpha:    make([]float32, nnz),
		pre:      make([]float32, nnz),
		sL:       make([]float32, n),
		sR:       make([]float32, n),
		dsL:      make([]float32, n),
		dsR:      make([]float32, n),
		dalpha:   make([]float32, adj.maxRow),
	}
}

// Forward computes attention-weighted aggregation.
func (l *GATLayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	n := l.n
	l.h = h
	l.z = tensor.Reuse(l.z, h.Rows, l.W.W.Cols)
	tensor.MatMulInto(h, l.W.W, l.z)
	d := l.z.Cols
	al, ar := l.AL.W.Row(0), l.AR.W.Row(0)
	// Phase 1: attention scores s_v = (aL·z_v, aR·z_v); rows independent.
	tensor.ParallelFor(n, 2*int64(n)*int64(d), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			zr := l.z.Row(v)
			var a, b float32
			for j := 0; j < d; j++ {
				a += al[j] * zr[j]
				b += ar[j] * zr[j]
			}
			l.sL[v], l.sR[v] = a, b
		}
	})
	// Phase 2: per-destination softmax and aggregation. Each v owns its out
	// row and its alpha/pre segment, accumulated in neighbor-list order, so
	// the split into blocks never changes results.
	l.out = tensor.Reuse(l.out, n, d)
	nnz := int64(l.rowPtr[n])
	forwardRange := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s, e := l.rowPtr[v], l.rowPtr[v+1]
			nbrs := l.nbrs[s:e]
			pre := l.pre[s:e]
			alpha := l.alpha[s:e]
			var max float32 = -1e30
			for i, u := range nbrs {
				e := l.sL[u] + l.sR[v]
				if e < 0 {
					e *= l.negSlope
				}
				pre[i] = e
				if e > max {
					max = e
				}
			}
			var sum float32
			for i := range pre {
				alpha[i] = expf(pre[i] - max)
				sum += alpha[i]
			}
			or := l.out.Row(v)
			for j := range or {
				or[j] = 0
			}
			for i, u := range nbrs {
				alpha[i] /= sum
				zr := l.z.Row(int(u))
				for j := 0; j < d; j++ {
					or[j] += alpha[i] * zr[j]
				}
			}
		}
	}
	p := tensor.Parallelism()
	if p <= 1 || n <= 1 || nnz*int64(d) < tensor.SerialWorkThreshold {
		forwardRange(0, n)
	} else {
		bounds := splitRowsByNNZ(l.rowPtr, p)
		fns := make([]func(), len(bounds)-1)
		for i := range fns {
			lo, hi := bounds[i], bounds[i+1]
			fns[i] = func() { forwardRange(lo, hi) }
		}
		tensor.ParallelDo(fns)
	}
	if l.last {
		return l.out
	}
	return l.act.Forward(l.out)
}

// Backward propagates through the attention mechanism exactly. The scatter
// into neighbor rows (dz, dsL) is not row-owned, so this pass stays serial.
func (l *GATLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if !l.last {
		dy = l.act.Backward(dy)
	}
	n := l.n
	d := l.z.Cols
	al, ar := l.AL.W.Row(0), l.AR.W.Row(0)
	l.dz = tensor.Reuse(l.dz, n, d)
	l.dz.Zero()
	for v := range l.dsL {
		l.dsL[v] = 0
		l.dsR[v] = 0
	}
	for v := 0; v < n; v++ {
		s, e := l.rowPtr[v], l.rowPtr[v+1]
		nbrs := l.nbrs[s:e]
		alpha := l.alpha[s:e]
		pre := l.pre[s:e]
		dyv := dy.Row(v)
		// dalpha and dz from out_v = Σ α_uv z_u
		dalpha := l.dalpha[:len(nbrs)]
		for i, u := range nbrs {
			zr := l.z.Row(int(u))
			var s float32
			for j := 0; j < d; j++ {
				s += zr[j] * dyv[j]
			}
			dalpha[i] = s
			dzr := l.dz.Row(int(u))
			for j := 0; j < d; j++ {
				dzr[j] += alpha[i] * dyv[j]
			}
		}
		// softmax backward
		var dot float32
		for i := range nbrs {
			dot += alpha[i] * dalpha[i]
		}
		for i, u := range nbrs {
			de := alpha[i] * (dalpha[i] - dot)
			// LeakyReLU backward
			if pre[i] < 0 {
				de *= l.negSlope
			}
			l.dsL[u] += de
			l.dsR[v] += de
		}
	}
	// s_v^L = aL·z_v, s_v^R = aR·z_v
	dAL := l.AL.Grad.Row(0)
	dAR := l.AR.Grad.Row(0)
	for v := 0; v < n; v++ {
		zr := l.z.Row(v)
		dzr := l.dz.Row(v)
		for j := 0; j < d; j++ {
			dAL[j] += l.dsL[v] * zr[j]
			dAR[j] += l.dsR[v] * zr[j]
			dzr[j] += l.dsL[v]*al[j] + l.dsR[v]*ar[j]
		}
	}
	// z = H·W; dW through pooled scratch keeps the old add order exactly.
	gw := tensor.Get(l.W.W.Rows, l.W.W.Cols)
	tensor.MatMulT1Into(l.h, l.dz, gw)
	l.W.Grad.AddInPlace(gw)
	tensor.Put(gw)
	l.dx = tensor.Reuse(l.dx, n, l.W.W.Rows)
	tensor.MatMulT2Into(l.dz, l.W.W, l.dx)
	return l.dx
}

// Params returns the layer parameters.
func (l *GATLayer) Params() []*nn.Param { return []*nn.Param{l.W, l.AL, l.AR} }

func expf(x float32) float32 { return float32(math.Exp(float64(x))) }
