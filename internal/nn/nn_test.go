package nn

import (
	"math"
	"testing"

	"graphsys/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 1, 1)
	d.W.W.Set(0, 0, 2)
	d.W.W.Set(1, 0, 3)
	d.B.W.Set(0, 0, 1)
	x := tensor.FromRows([][]float32{{1, 1}, {2, 0}})
	y := d.Forward(x)
	if y.At(0, 0) != 6 || y.At(1, 0) != 5 {
		t.Fatalf("dense forward: %v", y.Data)
	}
}

func TestDenseBackwardShapes(t *testing.T) {
	d := NewDense(3, 2, 1)
	x := tensor.Xavier(5, 3, 2)
	y := d.Forward(x)
	dx := d.Backward(y)
	if dx.Rows != 5 || dx.Cols != 3 {
		t.Fatal("dx shape")
	}
	if allZero(d.W.Grad) || allZero(d.B.Grad) {
		t.Fatal("grads not accumulated")
	}
}

func allZero(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestDenseBackwardParams: BackwardParams accumulates exactly Backward's dW
// and dB (over two steps, so the add into a nonzero Grad is covered too),
// never builds dX, and once its scratch exists allocates nothing beyond what
// its dW kernel call does on its own (the kernel's range closure).
func TestDenseBackwardParams(t *testing.T) {
	x := tensor.Xavier(300, 24, 2)
	dy := tensor.Xavier(300, 10, 3)
	ref, d := NewDense(24, 10, 1), NewDense(24, 10, 1)
	for step := 0; step < 2; step++ {
		ref.Forward(x)
		ref.Backward(dy)
		d.Forward(x)
		d.BackwardParams(dy)
	}
	for name, pair := range map[string][2]*tensor.Matrix{"W": {ref.W.Grad, d.W.Grad}, "B": {ref.B.Grad, d.B.Grad}} {
		for i, v := range pair[0].Data {
			if math.Float32bits(v) != math.Float32bits(pair[1].Data[i]) {
				t.Fatalf("%s.Grad[%d] = %v, Backward gives %v", name, i, pair[1].Data[i], v)
			}
		}
	}
	if d.dx != nil {
		t.Fatal("BackwardParams built the dX buffer")
	}
	gw := tensor.New(24, 10)
	kernel := testing.AllocsPerRun(10, func() { tensor.MatMulT1Into(x, dy, gw) })
	if a := testing.AllocsPerRun(10, func() { d.BackwardParams(dy) }); a != kernel {
		t.Fatalf("BackwardParams allocates %v per call, its dW kernel alone %v", a, kernel)
	}
}

// TestReLU pins the in-place contract bit for bit against the buffered
// definition (v <= 0 gives +0 and a false mask, anything else passes through
// with a true mask): the edge values -0, the smallest denormal, ±Inf and NaN
// included, over two shapes in successive calls. Forward and Backward return
// their argument and allocate nothing.
func TestReLU(t *testing.T) {
	inf := float32(math.Inf(1))
	edges := []float32{-1, float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, 2, inf, -inf, float32(math.NaN())}
	r := &ReLU{}
	for _, shape := range [][2]int{{2, 4}, {4, 6}} {
		x, dy := tensor.New(shape[0], shape[1]), tensor.New(shape[0], shape[1])
		for i := range x.Data {
			x.Data[i] = edges[i%len(edges)]
			dy.Data[i] = edges[(i/len(edges)+i)%len(edges)] + 1
		}
		wantY, wantDX := make([]float32, len(x.Data)), make([]float32, len(x.Data))
		for i, v := range x.Data {
			if v <= 0 {
				wantY[i], wantDX[i] = 0, 0
			} else {
				wantY[i], wantDX[i] = v, dy.Data[i]
			}
		}
		if y := r.Forward(x); y != x {
			t.Fatalf("%v: Forward returned a new matrix", shape)
		}
		if dx := r.Backward(dy); dx != dy {
			t.Fatalf("%v: Backward returned a new matrix", shape)
		}
		for i := range wantY {
			if math.Float32bits(x.Data[i]) != math.Float32bits(wantY[i]) {
				t.Errorf("%v: Forward(%v)[%d] = %v, want %v", shape, edges[i%len(edges)], i, x.Data[i], wantY[i])
			}
			if math.Float32bits(dy.Data[i]) != math.Float32bits(wantDX[i]) {
				t.Errorf("%v: Backward at input %v [%d] = %v, want %v", shape, edges[i%len(edges)], i, dy.Data[i], wantDX[i])
			}
		}
		if a := testing.AllocsPerRun(10, func() { r.Forward(x) }); a != 0 {
			t.Errorf("%v: Forward allocates %v per call", shape, a)
		}
		if a := testing.AllocsPerRun(10, func() { r.Backward(dy) }); a != 0 {
			t.Errorf("%v: Backward allocates %v per call", shape, a)
		}
	}
}

func TestSGDMinimizesQuadratic(t *testing.T) {
	// minimize (w-3)^2 via gradient 2(w-3)
	p := NewParam(tensor.New(1, 1))
	opt := &SGD{LR: 0.1}
	for i := 0; i < 200; i++ {
		p.Grad.Set(0, 0, 2*(p.W.At(0, 0)-3))
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.At(0, 0))-3) > 1e-3 {
		t.Fatalf("w = %f", p.W.At(0, 0))
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	p := NewParam(tensor.New(1, 2))
	p.W.Set(0, 0, 10)
	p.W.Set(0, 1, -10)
	opt := NewAdam(0.3)
	target := []float32{3, -4}
	for i := 0; i < 400; i++ {
		for j := 0; j < 2; j++ {
			p.Grad.Set(0, j, 2*(p.W.At(0, j)-target[j]))
		}
		opt.Step([]*Param{p})
	}
	for j := 0; j < 2; j++ {
		if math.Abs(float64(p.W.At(0, j)-target[j])) > 1e-2 {
			t.Fatalf("w[%d] = %f", j, p.W.At(0, j))
		}
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := NewParam(tensor.New(1, 1))
	p.W.Set(0, 0, 1)
	opt := &SGD{LR: 0.1, WeightDecay: 1}
	for i := 0; i < 10; i++ {
		opt.Step([]*Param{p}) // zero gradient: pure decay
	}
	w := float64(p.W.At(0, 0))
	if w >= 1 || w <= 0 {
		t.Fatalf("decayed weight %f", w)
	}
}

func TestAccuracyMasked(t *testing.T) {
	logits := tensor.FromRows([][]float32{{1, 0}, {0, 1}, {1, 0}})
	labels := []int{0, 1, 1}
	if a := Accuracy(logits, labels, nil); math.Abs(a-2.0/3) > 1e-9 {
		t.Fatalf("acc = %f", a)
	}
	mask := []bool{true, true, false}
	if a := Accuracy(logits, labels, mask); a != 1 {
		t.Fatalf("masked acc = %f", a)
	}
	if a := Accuracy(logits, []int{-1, -1, -1}, nil); a != 0 {
		t.Fatalf("all-masked acc = %f", a)
	}
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all zeros → uniform softmax
	loss, _ := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-5 {
		t.Fatalf("uniform loss = %f want ln4", loss)
	}
}

// TestSoftmaxCrossEntropyIntoOverwrites: a caller-owned gradient is fully
// overwritten — masked rows are zeroed over stale values — and the loss has
// the allocating form's bits, with a gradient buffer or without one.
func TestSoftmaxCrossEntropyIntoOverwrites(t *testing.T) {
	logits := tensor.Xavier(50, 4, 7)
	labels := make([]int, 50)
	for i := range labels {
		labels[i] = i%5 - 1 // a fifth masked
	}
	wantLoss, wantGrad := SoftmaxCrossEntropy(logits, labels)
	grad := tensor.Xavier(50, 4, 8) // stale contents
	if loss := SoftmaxCrossEntropyInto(logits, labels, grad); math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("loss %v, want %v", loss, wantLoss)
	}
	for i := range grad.Data {
		if math.Float32bits(grad.Data[i]) != math.Float32bits(wantGrad.Data[i]) {
			t.Fatalf("gradient element %d = %v, want %v", i, grad.Data[i], wantGrad.Data[i])
		}
	}
	if loss := SoftmaxCrossEntropyInto(logits, labels, nil); math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("loss-only %v, want %v", loss, wantLoss)
	}
	for i := range labels {
		labels[i] = -1
	}
	if loss := SoftmaxCrossEntropyInto(logits, labels, grad); loss != 0 {
		t.Fatalf("all-masked loss %v, want 0", loss)
	}
	for i, v := range grad.Data {
		if math.Float32bits(v) != 0 {
			t.Fatalf("all-masked gradient element %d = %v, want +0", i, v)
		}
	}
}

func TestMSE(t *testing.T) {
	pred := tensor.FromRows([][]float32{{1, 2}})
	target := tensor.FromRows([][]float32{{0, 4}})
	loss, grad := MSE(pred, target)
	if math.Abs(loss-(1+4)/2.0) > 1e-6 {
		t.Fatalf("mse = %f", loss)
	}
	// d/dpred mean((p-t)^2) = 2(p-t)/n
	if grad.At(0, 0) != 1 || grad.At(0, 1) != -2 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestMSEGradientDescentFits(t *testing.T) {
	// fit y = 2x with a 1-weight linear model using MSE
	p := NewParam(tensor.New(1, 1))
	opt := &SGD{LR: 0.01} // bounded by 2·lr·x² < 1 for stability
	for i := 0; i < 600; i++ {
		x := float32(i%5) + 1
		pred := tensor.FromRows([][]float32{{p.W.At(0, 0) * x}})
		target := tensor.FromRows([][]float32{{2 * x}})
		_, g := MSE(pred, target)
		p.Grad.Set(0, 0, g.At(0, 0)*x)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W.At(0, 0))-2) > 1e-2 {
		t.Fatalf("w = %f", p.W.At(0, 0))
	}
}

func TestAdamSnapshotRestoreReplaysExactly(t *testing.T) {
	// two optimisers, same gradient stream; one is rewound mid-run via a
	// snapshot and replayed — final weights must match bit-for-bit
	mkParams := func() []*Param {
		return []*Param{
			NewParam(tensor.Xavier(3, 4, 1)),
			NewParam(tensor.Xavier(4, 2, 2)),
		}
	}
	grad := func(step int, params []*Param) {
		for pi, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float32(pi+1) * float32(i%5-2) * float32(step+1) * 0.01
			}
		}
	}
	ref := mkParams()
	refOpt := NewAdam(0.05)
	for s := 0; s < 10; s++ {
		grad(s, ref)
		refOpt.Step(ref)
	}

	got := mkParams()
	opt := NewAdam(0.05)
	var st AdamState
	var saved []*tensor.Matrix
	for s := 0; s < 7; s++ {
		if s == 4 {
			st = opt.Snapshot(got)
			for _, p := range got {
				saved = append(saved, p.W.Clone())
			}
		}
		grad(s, got)
		opt.Step(got)
	}
	// crash: rewind to step 4 and replay 4..9
	opt.Restore(got, st)
	for i, p := range got {
		copy(p.W.Data, saved[i].Data)
		p.ZeroGrad()
	}
	for s := 4; s < 10; s++ {
		grad(s, got)
		opt.Step(got)
	}
	for i := range ref {
		if tensor.MaxAbsDiff(ref[i].W, got[i].W) != 0 {
			t.Fatalf("param %d diverged after snapshot replay", i)
		}
	}
}

func TestAdamSnapshotBeforeFirstStep(t *testing.T) {
	params := []*Param{NewParam(tensor.Xavier(2, 2, 3))}
	opt := NewAdam(0.1)
	st := opt.Snapshot(params) // no moments yet
	if st.T != 0 || st.M[0] != nil {
		t.Fatalf("fresh snapshot not empty: %+v", st)
	}
	grad := func() { params[0].Grad.Data[0] = 1 }
	grad()
	opt.Step(params)
	opt.Restore(params, st)
	if opt.Snapshot(params).T != 0 {
		t.Fatal("restore did not rewind step count")
	}
	// moments map must be cleared so the next Step re-initialises
	grad()
	opt.Step(params)
	if opt.Snapshot(params).T != 1 {
		t.Fatal("step after restore did not count from zero")
	}
}
