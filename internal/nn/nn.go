// Package nn provides the neural-network building blocks for GNN training:
// parameterised layers with explicit forward/backward passes, classification
// and regression losses, and SGD/Adam optimisers. Gradients are exact (each
// layer's backward is validated against numerical differentiation in tests),
// which is what lets the distributed-training experiments in internal/gnndist
// attribute accuracy differences to staleness/quantisation rather than to a
// sloppy autograd.
package nn

import (
	"fmt"
	"math"

	"graphsys/internal/tensor"
)

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam wraps a weight matrix.
func NewParam(w *tensor.Matrix) *Param {
	return &Param{W: w, Grad: tensor.New(w.Rows, w.Cols)}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Dense is a fully connected layer Y = X·W + b. The layer owns its forward
// and backward output buffers and only grows them (tensor.Reuse): once it
// has run a batch of some row count, Forward/Backward on a batch no larger
// allocate no buffer. Each returned matrix is valid until the next call of
// the same method on this layer.
type Dense struct {
	W *Param
	B *Param

	x  *tensor.Matrix // cached input
	y  *tensor.Matrix // reused Forward output
	dx *tensor.Matrix // reused Backward output
	gw *tensor.Matrix // reused dW scratch
}

// NewDense creates a Dense layer with Xavier-initialised weights.
func NewDense(in, out int, seed int64) *Dense {
	return &Dense{
		W: NewParam(tensor.Xavier(in, out, seed)),
		B: NewParam(tensor.New(1, out)),
	}
}

// Forward computes X·W + b, caching X for the backward pass.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	d.x = x
	d.y = tensor.Reuse(d.y, x.Rows, d.W.W.Cols)
	d.ApplyInto(x, d.y)
	return d.y
}

// ApplyInto computes X·W + b into out (x.Rows×W.Cols, fully overwritten)
// and keeps nothing for a backward pass: the inference form of Forward, bit
// for bit its rows.
func (d *Dense) ApplyInto(x, out *tensor.Matrix) {
	tensor.MatMulInto(x, d.W.W, out)
	out.AddRowVector(d.B.W.Row(0))
}

// Backward accumulates dW, dB and returns dX.
func (d *Dense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	d.BackwardParams(dy)
	d.dx = tensor.Reuse(d.dx, dy.Rows, d.W.W.Rows)
	tensor.MatMulT2Into(dy, d.W.W, d.dx)
	return d.dx
}

// BackwardParams accumulates dW and dB exactly as Backward does but skips
// dX = dY·Wᵀ, for a first layer whose input is data and whose input gradient
// would be discarded.
func (d *Dense) BackwardParams(dy *tensor.Matrix) {
	// dW goes through owned scratch, not straight into Grad: the kernel
	// owns the full accumulation of XᵀdY, and the single AddInPlace keeps
	// the same order as the old MatMulT1-then-add when Grad is nonzero.
	d.gw = tensor.Reuse(d.gw, d.W.W.Rows, d.W.W.Cols)
	tensor.MatMulT1Into(d.x, dy, d.gw)
	d.W.Grad.AddInPlace(d.gw)
	bg := d.B.Grad.Row(0)
	for i := 0; i < dy.Rows; i++ {
		r := dy.Row(i)
		for j := range r {
			bg[j] += r[j]
		}
	}
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU activation, applied in place: it owns no buffers. Forward rectifies
// its argument and Backward gates its argument, each returning the matrix it
// was given, so a caller passes only a buffer it owns and does not read
// again (other than through the result) before rewriting it. Forward's
// output is Backward's mask and must stay unchanged until then: y is 0
// exactly where the input was <= 0, so passing the gradient where y != 0
// treats -0, denormals, ±Inf and NaN exactly as a mask of x > 0 would.
type ReLU struct {
	y *tensor.Matrix // the last Forward's output, which is its mask
}

// Forward sets every x <= 0 to +0 and returns x.
//
//lint:hotpath activation of every hidden GNN layer and of gnndist's trainer
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	for i, v := range x.Data {
		if v <= 0 {
			x.Data[i] = 0
		}
	}
	r.y = x
	return x
}

// Backward zeroes dy wherever the last Forward's output is 0 and returns dy.
//
//lint:hotpath activation gradient of every hidden GNN layer and of gnndist's trainer
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := range dy.Data {
		if r.y.Data[i] == 0 {
			dy.Data[i] = 0
		}
	}
	return dy
}

// SoftmaxCrossEntropy computes mean cross-entropy loss over rows given
// integer class labels, and the gradient w.r.t. the logits in a new matrix.
// Rows with label < 0 are masked out (e.g. non-training vertices in
// full-graph GNN training).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return SoftmaxCrossEntropyInto(logits, labels, grad), grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient into
// a caller-owned grad of the logits' shape, fully overwritten (masked rows
// are zeroed), or computing the loss alone when grad is nil.
func SoftmaxCrossEntropyInto(logits *tensor.Matrix, labels []int, grad *tensor.Matrix) float64 {
	if grad != nil && (grad.Rows != logits.Rows || grad.Cols != logits.Cols) {
		panic(fmt.Sprintf("nn: loss gradient %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	var loss float64
	n := 0
	for i := 0; i < logits.Rows; i++ {
		if labels[i] < 0 {
			continue
		}
		n++
	}
	if n == 0 {
		if grad != nil {
			grad.Zero()
		}
		return 0
	}
	inv := float32(1.0 / float64(n))
	exps := make([]float64, logits.Cols) // hoisted: fully rewritten per row
	for i := 0; i < logits.Rows; i++ {
		y := labels[i]
		if y < 0 {
			if grad != nil {
				clear(grad.Row(i))
			}
			continue
		}
		row := logits.Row(i)
		// stable softmax
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			exps[j] = math.Exp(float64(v - max))
			sum += exps[j]
		}
		loss += -math.Log(exps[y]/sum + 1e-12)
		if grad == nil {
			continue
		}
		g := grad.Row(i)
		for j := range row {
			p := float32(exps[j] / sum)
			if j == y {
				p -= 1
			}
			g[j] = p * inv
		}
	}
	return loss / float64(n)
}

// Accuracy returns the fraction of rows whose argmax equals the label,
// considering only rows with label ≥ 0 and (if mask is non-nil) mask true.
func Accuracy(logits *tensor.Matrix, labels []int, mask []bool) float64 {
	correct, total := 0, 0
	for i := 0; i < logits.Rows; i++ {
		if labels[i] < 0 || (mask != nil && !mask[i]) {
			continue
		}
		row := logits.Row(i)
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		if arg == labels[i] {
			correct++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step applies one update and zeroes gradients.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		for i := range p.W.Data {
			g := p.Grad.Data[i] + float32(o.WeightDecay)*p.W.Data[i]
			p.W.Data[i] -= float32(o.LR) * g
		}
		p.ZeroGrad()
	}
}

// Adam optimiser (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam creates an Adam optimiser with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*tensor.Matrix{}, v: map[*Param]*tensor.Matrix{}}
}

// Step applies one Adam update and zeroes gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.W.Rows, p.W.Cols)
			o.m[p] = m
			o.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		v := o.v[p]
		for i := range p.W.Data {
			g := float64(p.Grad.Data[i])
			m.Data[i] = float32(o.Beta1*float64(m.Data[i]) + (1-o.Beta1)*g)
			v.Data[i] = float32(o.Beta2*float64(v.Data[i]) + (1-o.Beta2)*g*g)
			mh := float64(m.Data[i]) / c1
			vh := float64(v.Data[i]) / c2
			p.W.Data[i] -= float32(o.LR * mh / (math.Sqrt(vh) + o.Eps))
		}
		p.ZeroGrad()
	}
}

// AdamState is a deep snapshot of an Adam optimiser's step count and moment
// estimates, aligned to the params slice it was taken against. It is the
// optimiser half of a training checkpoint: restoring weights alone would
// replay updates with wrong moments and diverge from the fault-free run.
type AdamState struct {
	T    int
	M, V []*tensor.Matrix // nil entries: param had no moments yet
}

// Snapshot captures the optimiser state for params. The clones are deep, so
// later Steps do not mutate the snapshot.
func (o *Adam) Snapshot(params []*Param) AdamState {
	st := AdamState{T: o.t, M: make([]*tensor.Matrix, len(params)), V: make([]*tensor.Matrix, len(params))}
	for i, p := range params {
		if m, ok := o.m[p]; ok {
			st.M[i] = m.Clone()
			st.V[i] = o.v[p].Clone()
		}
	}
	return st
}

// Restore rewinds the optimiser to a snapshot taken against the same params
// slice. The snapshot itself stays intact (restore clones), so one checkpoint
// can be restored multiple times.
func (o *Adam) Restore(params []*Param, st AdamState) {
	o.t = st.T
	for i, p := range params {
		if st.M[i] == nil {
			delete(o.m, p)
			delete(o.v, p)
			continue
		}
		o.m[p] = st.M[i].Clone()
		o.v[p] = st.V[i].Clone()
	}
}

// MSE computes the mean squared error between predictions and targets (both
// rows×cols) and the gradient w.r.t. the predictions.
func MSE(pred *tensor.Matrix, target *tensor.Matrix) (float64, *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	grad := tensor.New(pred.Rows, pred.Cols)
	if len(pred.Data) == 0 {
		return 0, grad
	}
	var loss float64
	inv := 2 / float64(len(pred.Data))
	for i := range pred.Data {
		d := float64(pred.Data[i]) - float64(target.Data[i])
		loss += d * d
		grad.Data[i] = float32(d * inv)
	}
	return loss / float64(len(pred.Data)), grad
}
