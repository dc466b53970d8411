package gnn

import (
	"math"

	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// Layer is one graph-convolution layer with explicit backward.
//
// Layers own their output buffers and only grow them (tensor.Reuse), so
// steady-state epochs allocate nothing, and a model rebound to a batch no
// larger than one it has run allocates no layer buffer; a returned matrix is
// valid until the next call of the same method on the same layer.
//
// A hidden layer's activation (nn.ReLU) works in place: Forward rectifies
// the layer's own dense or attention output and returns it, and Backward
// gates dy in place before using it. So Backward may overwrite the dy it is
// given; Model.Backward passes each layer the gradient matrix the layer
// above returned, which that layer rewrites before reading it again.
// BackwardParams is Backward without the input gradient, for a first layer
// whose input is data.
//
// infer is Forward's inference form (see Model.Infer): the same output bits,
// in a new matrix, with no state kept for a backward pass.
type Layer interface {
	Forward(h *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
	BackwardParams(dy *tensor.Matrix)
	Params() []*nn.Param
	infer(h *tensor.Matrix, tileRows int) *tensor.Matrix
}

// denseAct is the dense transform and, below the last layer, the ReLU that
// end the GCN, SAGE and GIN layers.
type denseAct struct {
	lin  *nn.Dense
	act  *nn.ReLU
	last bool // last layer: no activation (logits)
}

func newDenseAct(in, out int, last bool, seed int64) denseAct {
	return denseAct{lin: nn.NewDense(in, out, seed), act: &nn.ReLU{}, last: last}
}

// forward applies the dense transform to x, then the activation.
func (d *denseAct) forward(x *tensor.Matrix) *tensor.Matrix {
	z := d.lin.Forward(x)
	if d.last {
		return z
	}
	return d.act.Forward(z)
}

// gate propagates dy through the activation.
func (d *denseAct) gate(dy *tensor.Matrix) *tensor.Matrix {
	if d.last {
		return dy
	}
	return d.act.Backward(dy)
}

// BackwardParams accumulates the dense parameters' gradients.
func (d *denseAct) BackwardParams(dy *tensor.Matrix) { d.lin.BackwardParams(d.gate(dy)) }

// Params returns the layer parameters.
func (d *denseAct) Params() []*nn.Param { return d.lin.Params() }

// inferTiles is forward's inference form over n output rows, tileRows at a
// time (tileRows < 1 means one tile): fill writes rows [lo, hi) of the dense
// input, width columns wide, into in, and the dense transform, bias and
// activation write the tile's output rows. Only the output is n rows long;
// the input is one tile. Every kernel here computes a row from that row's
// inputs alone, so the output is bitwise forward's at any tiling.
func (d *denseAct) inferTiles(n, width, tileRows int, fill func(in *tensor.Matrix, lo, hi int)) *tensor.Matrix {
	if tileRows < 1 || tileRows > n {
		tileRows = n
	}
	out := tensor.New(n, d.lin.W.W.Cols)
	buf := tensor.New(tileRows, width)
	var act nn.ReLU
	for lo := 0; lo < n; lo += tileRows {
		hi := min(lo+tileRows, n)
		in, o := buf.SliceRows(0, hi-lo), out.SliceRows(lo, hi)
		fill(in, lo, hi)
		d.lin.ApplyInto(in, o)
		if !d.last {
			act.Forward(o)
		}
	}
	return out
}

// Propagation is a GCN layer's graph operator, a linear map over vertex
// rows: ApplyInto computes the forward Â·H and ApplyTInto the backward
// Âᵀ·dZ (out fully overwritten by both). NewModel and Rebind install
// NewNormAdj's *Agg; a trainer may install another operator, such as
// DistGNN's delayed aggregation, in GCNLayer.Adj. Model.Infer runs Agg's row
// kernel, so it needs an *Agg.
type Propagation interface {
	ApplyInto(h, out *tensor.Matrix)
	ApplyTInto(dy, out *tensor.Matrix)
}

// GCNLayer computes σ(Â·H·W + b) (Kipf & Welling).
type GCNLayer struct {
	Adj Propagation
	denseAct

	agg   *tensor.Matrix // reused Â·H buffer (cached by lin); Backward's dZ
	dAgg  *tensor.Matrix // reused backward Âᵀ·dZ buffer
	fixed *tensor.Matrix // the input whose Â·H agg holds (Model.FixInput)
}

// Forward runs graph data retrieving (Â·H) then model computation (·W, σ).
// While h is the fixed input, agg already holds Â·H and is not recomputed;
// any other h drops the fix.
func (l *GCNLayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	if h != l.fixed {
		l.fixed = nil
		l.aggregate(h)
	}
	return l.forward(l.agg)
}

// aggregate computes Â·h into agg.
func (l *GCNLayer) aggregate(h *tensor.Matrix) {
	l.agg = tensor.Reuse(l.agg, h.Rows, h.Cols)
	l.Adj.ApplyInto(h, l.agg)
}

// Backward propagates through σ, W and Â. lin has read agg by the time
// dZ = dY·Wᵀ is written, so dZ reuses agg (and the fixed Â·H is gone); the
// returned Âᵀ·dZ has its own buffer.
func (l *GCNLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dy = l.gate(dy)
	l.lin.BackwardParams(dy)
	tensor.MatMulT2Into(dy, l.lin.W.W, l.agg)
	l.fixed = nil
	l.dAgg = tensor.Reuse(l.dAgg, l.agg.Rows, l.agg.Cols)
	l.Adj.ApplyTInto(l.agg, l.dAgg)
	return l.dAgg
}

func (l *GCNLayer) infer(h *tensor.Matrix, tileRows int) *tensor.Matrix {
	a := l.Adj.(*Agg)
	return l.inferTiles(a.n, h.Cols, tileRows, func(in *tensor.Matrix, lo, hi int) {
		a.applyRows(h, in, lo, hi)
	})
}

// SAGELayer is the GraphSAGE mean-aggregator layer from the paper's §3
// equation: h'_v = σ(W·CONCAT(h_v, mean_{u∈N(v)} h_u) + b).
type SAGELayer struct {
	agg *Agg // NewMeanAgg
	denseAct
	inD int

	hn     *tensor.Matrix // reused mean-aggregated features
	concat *tensor.Matrix // reused [h | hn] (cached by lin for backward)
	dSelf  *tensor.Matrix // reused split buffers
	dN     *tensor.Matrix
	dH     *tensor.Matrix // reused backward output
}

// Forward aggregates neighbor features and applies the dense transform.
func (l *SAGELayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	l.hn = tensor.Reuse(l.hn, h.Rows, h.Cols)
	l.agg.ApplyInto(h, l.hn)
	l.concat = tensor.Reuse(l.concat, h.Rows, 2*h.Cols)
	tensor.ConcatColsInto(h, l.hn, l.concat)
	return l.forward(l.concat)
}

// Backward splits the concat gradient into self and neighbor parts; the
// adjoint scales dN, the layer's own buffer, in place.
func (l *SAGELayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dConcat := l.lin.Backward(l.gate(dy))
	l.dSelf = tensor.Reuse(l.dSelf, dConcat.Rows, l.inD)
	l.dN = tensor.Reuse(l.dN, dConcat.Rows, dConcat.Cols-l.inD)
	tensor.SplitColsInto(dConcat, l.dSelf, l.dN)
	l.dH = tensor.Reuse(l.dH, dConcat.Rows, l.inD)
	l.agg.ApplyTInto(l.dN, l.dH)
	l.dH.AddInPlace(l.dSelf)
	return l.dH
}

func (l *SAGELayer) infer(h *tensor.Matrix, tileRows int) *tensor.Matrix {
	var hn *tensor.Matrix
	return l.inferTiles(l.agg.n, 2*h.Cols, tileRows, func(in *tensor.Matrix, lo, hi int) {
		hn = tensor.Reuse(hn, hi-lo, h.Cols)
		l.agg.applyRows(h, hn, lo, hi)
		tensor.ConcatColsInto(h.SliceRows(lo, hi), hn, in)
	})
}

// GATLayer is a single-head graph attention layer (Veličković et al.):
// e_uv = LeakyReLU(aᴸ·z_u + aᴿ·z_v) over u ∈ N(v)∪{v}, α = softmax_u,
// out_v = σ(Σ_u α_uv z_u), where z = H·W. The neighborhoods (with self-loop
// last) are the structure of an Agg built when the layer is bound to a
// graph (no weights and no adjoint: the backward is its own scatter), and
// the attention coefficient caches are flat nnz-length arrays, grown only
// when a graph needs more, instead of per-vertex allocations. The forward
// pass is parallel over destination vertices (each owns its out/alpha rows —
// deterministic at any worker count); the backward pass scatters into
// arbitrary neighbor rows and stays serial.
type GATLayer struct {
	adj      *Agg
	W        *nn.Param
	AL, AR   *nn.Param
	last     bool
	negSlope float32

	// caches and reused buffers
	h      *tensor.Matrix
	z      *tensor.Matrix
	alpha  []float32 // flat, aligned with adj.col: attention over N(v)∪{v}
	pre    []float32 // flat pre-LeakyReLU scores
	sL, sR []float32
	out    *tensor.Matrix
	act    *nn.ReLU

	dz     *tensor.Matrix
	dx     *tensor.Matrix
	dW     *tensor.Matrix // H·dZ before it is added to W's gradient
	dsL    []float32
	dsR    []float32
	dalpha []float32 // scratch, grown to the longest row seen
}

// newGATLayer builds a single-head GAT layer, not yet bound to a graph.
func newGATLayer(in, out int, last bool, seed int64) *GATLayer {
	return &GATLayer{
		W:        nn.NewParam(tensor.Xavier(in, out, seed)),
		AL:       nn.NewParam(tensor.Xavier(1, out, seed+1)),
		AR:       nn.NewParam(tensor.Xavier(1, out, seed+2)),
		last:     last,
		negSlope: 0.2,
		act:      &nn.ReLU{},
	}
}

// grow returns s resized to n, reallocating only past its capacity; the
// contents are stale.
func grow(s []float32, n int) []float32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]float32, n)
}

// scores computes the attention scores s_v = (aL·z_v, aR·z_v); rows are
// independent.
func (l *GATLayer) scores(z *tensor.Matrix, sL, sR []float32) {
	d := z.Cols
	al, ar := l.AL.W.Row(0), l.AR.W.Row(0)
	tensor.ParallelFor(z.Rows, 2*int64(z.Rows)*int64(d), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			zr := z.Row(v)
			var a, b float32
			for j := 0; j < d; j++ {
				a += al[j] * zr[j]
				b += ar[j] * zr[j]
			}
			sL[v], sR[v] = a, b
		}
	})
}

// attend writes destination v's softmax over its neighbourhood into pre and
// alpha (its pre-LeakyReLU scores and attention, one entry per neighbour)
// and its aggregation Σ_u α_uv z_u into or, accumulated in neighbor-list
// order.
func (l *GATLayer) attend(v int, z *tensor.Matrix, sL, sR, pre, alpha, or []float32) {
	nbrs := l.adj.col[l.adj.rowPtr[v]:l.adj.rowPtr[v+1]]
	var max float32 = -1e30
	for i, u := range nbrs {
		e := sL[u] + sR[v]
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
	for j := range or {
		or[j] = 0
	}
	for i, u := range nbrs {
		alpha[i] /= sum
		zr := z.Row(int(u))
		for j := range or {
			or[j] += alpha[i] * zr[j]
		}
	}
}

// Forward computes attention-weighted aggregation.
func (l *GATLayer) Forward(h *tensor.Matrix) *tensor.Matrix {
	n, nnz := l.adj.n, len(l.adj.col)
	l.h = h
	l.z = tensor.Reuse(l.z, h.Rows, l.W.W.Cols)
	tensor.MatMulInto(h, l.W.W, l.z)
	l.sL, l.sR = grow(l.sL, n), grow(l.sR, n)
	l.scores(l.z, l.sL, l.sR)
	// Each v owns its out row and its alpha/pre segment, so the split into
	// blocks never changes results.
	l.alpha, l.pre = grow(l.alpha, nnz), grow(l.pre, nnz)
	l.out = tensor.Reuse(l.out, n, l.z.Cols)
	if b := rowBlocks(l.adj.rowPtr, 0, n, l.z.Cols); b != nil {
		runBlocks(b, l.attendRange)
	} else {
		l.attendRange(0, n)
	}
	if l.last {
		return l.out
	}
	return l.act.Forward(l.out)
}

// attendRange is Forward's attention over destinations [lo, hi), into the
// layer's caches and output.
func (l *GATLayer) attendRange(lo, hi int) {
	for v := lo; v < hi; v++ {
		s, e := l.adj.rowPtr[v], l.adj.rowPtr[v+1]
		l.attend(v, l.z, l.sL, l.sR, l.pre[s:e], l.alpha[s:e], l.out.Row(v))
	}
}

// infer is Forward keeping no attention caches: z = H·W and the scores are
// materialised whole, since every destination reads its neighbours' rows,
// and each block of destinations attends through its own row scratch.
// tileRows does not apply.
func (l *GATLayer) infer(h *tensor.Matrix, _ int) *tensor.Matrix {
	n := l.adj.n
	z := tensor.New(h.Rows, l.W.W.Cols)
	tensor.MatMulInto(h, l.W.W, z)
	sL, sR := make([]float32, n), make([]float32, n)
	l.scores(z, sL, sR)
	out := tensor.New(n, z.Cols)
	attendRange := func(lo, hi int) {
		var pre, alpha []float32
		for v := lo; v < hi; v++ {
			k := int(l.adj.rowPtr[v+1] - l.adj.rowPtr[v])
			pre, alpha = grow(pre, k), grow(alpha, k)
			l.attend(v, z, sL, sR, pre, alpha, out.Row(v))
		}
	}
	if b := rowBlocks(l.adj.rowPtr, 0, n, z.Cols); b != nil {
		runBlocks(b, attendRange)
	} else {
		attendRange(0, n)
	}
	if !l.last {
		var act nn.ReLU
		act.Forward(out)
	}
	return out
}

// Backward propagates through the attention mechanism exactly.
func (l *GATLayer) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(dy)
	l.dx = tensor.Reuse(l.dx, l.dz.Rows, l.W.W.Rows)
	tensor.MatMulT2Into(l.dz, l.W.W, l.dx)
	return l.dx
}

// BackwardParams accumulates the gradients of W, aᴸ and aᴿ, leaving dz for
// Backward's input gradient. The scatter into neighbor rows (dz, dsL) is not
// row-owned, so this pass stays serial.
func (l *GATLayer) BackwardParams(dy *tensor.Matrix) {
	if !l.last {
		dy = l.act.Backward(dy)
	}
	n := l.adj.n
	d := l.z.Cols
	al, ar := l.AL.W.Row(0), l.AR.W.Row(0)
	l.dz = tensor.Reuse(l.dz, n, d)
	l.dz.Zero()
	l.dsL, l.dsR = grow(l.dsL, n), grow(l.dsR, n)
	clear(l.dsL)
	clear(l.dsR)
	for v := 0; v < n; v++ {
		s, e := l.adj.rowPtr[v], l.adj.rowPtr[v+1]
		nbrs := l.adj.col[s:e]
		alpha := l.alpha[s:e]
		pre := l.pre[s:e]
		dyv := dy.Row(v)
		// dalpha and dz from out_v = Σ α_uv z_u
		l.dalpha = grow(l.dalpha, len(nbrs))
		dalpha := l.dalpha
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
	// z = H·W; dW through the layer's scratch keeps the old add order exactly.
	l.dW = tensor.Reuse(l.dW, l.W.W.Rows, l.W.W.Cols)
	tensor.MatMulT1Into(l.h, l.dz, l.dW)
	l.W.Grad.AddInPlace(l.dW)
}

// Params returns the layer parameters.
func (l *GATLayer) Params() []*nn.Param { return []*nn.Param{l.W, l.AL, l.AR} }

func expf(x float32) float32 { return float32(math.Exp(float64(x))) }
