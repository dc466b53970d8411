package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

var allKinds = []ModelKind{GCN, SAGE, GAT, GIN}

// randomFeatures returns an n×width matrix of uniform values in [-1, 1).
func randomFeatures(n, width int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, width)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

// FuzzInferVsForward: over any graph (directed or not, isolated vertices
// allowed), layer kind and widths, the tiled inference forward at tiles of 1,
// 7 and all rows equals Model.Forward bit for bit, at kernel parallelism 1
// and 2. Graphs reach 2,048 vertices and features 48 columns, so the
// aggregation and matmul kernels cross tensor.SerialWorkThreshold and the
// parallel row splits inside a tile run too.
func FuzzInferVsForward(f *testing.F) {
	f.Add(int64(1), uint16(60), uint8(3), false, uint8(0), uint8(7), uint8(8))
	f.Add(int64(2), uint16(1500), uint8(6), false, uint8(1), uint8(40), uint8(16))
	f.Add(int64(3), uint16(2047), uint8(7), true, uint8(2), uint8(30), uint8(12))
	f.Add(int64(4), uint16(900), uint8(5), false, uint8(3), uint8(47), uint8(32))
	f.Add(int64(5), uint16(0), uint8(0), false, uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, graphSeed int64, n uint16, deg uint8, directed bool, kind, width, hidden uint8) {
		nv := 1 + int(n)%2048
		gr := rand.New(rand.NewSource(graphSeed))
		b := graph.NewBuilder(nv, directed)
		for i := 0; i < nv*(int(deg)%8); i++ {
			b.AddEdge(graph.V(gr.Intn(nv)), graph.V(gr.Intn(nv)))
		}
		g := b.Build()
		k := allKinds[int(kind)%len(allKinds)]
		x := randomFeatures(nv, 1+int(width)%48, graphSeed+1)
		m := NewModel(g, k, []int{x.Cols, 1 + int(hidden)%40, 5}, graphSeed+2)
		defer tensor.SetParallelism(0)
		for _, par := range []int{1, 2} {
			tensor.SetParallelism(par)
			want := m.Forward(x).Clone()
			for _, tile := range []int{1, 7, nv} {
				mustBitwiseEqual(t, fmt.Sprintf("%v n=%d parallelism %d tile %d", k, nv, par, tile), m.Infer(x, tile), want)
			}
			// the fixed-input path: Â·x computed once, Forward skipping it
			m.FixInput(x)
			mustBitwiseEqual(t, fmt.Sprintf("%v n=%d parallelism %d fixed", k, nv, par), m.Forward(x), want)
			mustBitwiseEqual(t, fmt.Sprintf("%v n=%d parallelism %d fixed, again", k, nv, par), m.Forward(x), want)
			m.FixInput(nil)
		}
	})
}

// TestFixInput: a GCN model whose input is fixed computes the logits and
// parameter gradients of one whose input is not, bit for bit, over training
// steps; a Forward with another input, Rebind and the first layer's own
// Backward each drop the fix, so what follows them is a fresh model's too;
// and TrainFullGraph returns holding no fix.
func TestFixInput(t *testing.T) {
	g, g2 := testGraphs()["ba"], gen.BarabasiAlbert(400, 3, 7)
	n := g.NumVertices()
	x, y := randomFeatures(n, 6, 1), randomFeatures(n, 6, 2)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i%4 - 1 // a quarter masked
	}
	dims := []int{6, 8, 3}
	// step runs one forward and backward and an Adam step, returning the
	// logits and a copy of the gradients.
	step := func(m *Model, opt *nn.Adam, x *tensor.Matrix) (*tensor.Matrix, []*tensor.Matrix) {
		logits := m.Forward(x).Clone()
		_, d := nn.SoftmaxCrossEntropy(logits, labels)
		m.Backward(d)
		var grads []*tensor.Matrix
		for _, p := range m.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		opt.Step(m.Params())
		return logits, grads
	}
	ref, fixed := NewModel(g, GCN, dims, 5), NewModel(g, GCN, dims, 5)
	refOpt, fixedOpt := nn.NewAdam(0.05), nn.NewAdam(0.05)
	first := fixed.Layers[0].(*GCNLayer)
	fixed.FixInput(x)
	for ep := 0; ep < 3; ep++ {
		wantL, wantG := step(ref, refOpt, x)
		gotL, gotG := step(fixed, fixedOpt, x)
		mustBitwiseEqual(t, fmt.Sprintf("epoch %d logits", ep), gotL, wantL)
		for i := range wantG {
			mustBitwiseEqual(t, fmt.Sprintf("epoch %d param %d grad", ep, i), gotG[i], wantG[i])
		}
		if first.fixed != x {
			t.Fatalf("epoch %d: Forward(x) and Model.Backward dropped the fix", ep)
		}
	}
	same := func(name string, got, want *Model, x *tensor.Matrix) {
		t.Helper()
		mustBitwiseEqual(t, name, got.Forward(x).Clone(), want.Forward(x))
	}
	// another input drops the fix and is aggregated itself
	same("other input", fixed, ref, y)
	if first.fixed != nil {
		t.Fatal("Forward(y) kept x's fix")
	}
	same("x after other input", fixed, ref, x)

	// the first layer's own Backward writes dZ over Â·x, and drops the fix
	fixed.FixInput(x)
	_, d := nn.SoftmaxCrossEntropy(fixed.Forward(x), labels)
	first.Backward(fixed.Layers[1].Backward(d))
	if first.fixed != nil {
		t.Fatal("Layers[0].Backward kept the fix")
	}
	same("x after first layer's Backward", fixed, ref, x)

	// Rebind drops the fix: Â changes under the same x
	fixed.FixInput(x)
	fixed.Rebind(g2)
	ref.Rebind(g2)
	if first.fixed != nil {
		t.Fatal("Rebind kept the fix")
	}
	same("x after Rebind", fixed, ref, x)

	TrainFullGraph(fixed, x, labels, nil, nil, TrainConfig{Epochs: 2})
	if first.fixed != nil {
		t.Fatal("TrainFullGraph returned holding a fix")
	}
}

// TestInferKeepsNoLayerState: Infer leaves the layers' caches alone, so a
// Backward after it still sees the last Forward's state and produces the
// gradients it would have without the Infer in between.
func TestInferKeepsNoLayerState(t *testing.T) {
	g := testGraphs()["ba"]
	x := randomFeatures(g.NumVertices(), 6, 1)
	labels := make([]int, g.NumVertices())
	for i := range labels {
		labels[i] = i % 3
	}
	for _, k := range allKinds {
		grads := func(inferBetween bool) []*nn.Param {
			m := NewModel(g, k, []int{6, 8, 3}, 5)
			_, dLogits := nn.SoftmaxCrossEntropy(m.Forward(x), labels)
			if inferBetween {
				m.Infer(randomFeatures(g.NumVertices(), 6, 2), 64)
			}
			m.Backward(dLogits)
			return m.Params()
		}
		want, got := grads(false), grads(true)
		for i := range want {
			mustBitwiseEqual(t, fmt.Sprintf("%v param %d grad", k, i), got[i].Grad, want[i].Grad)
		}
	}
}

// TestBackwardParamsMatchesBackward: Model.Backward stops at the first
// layer's parameters, and every parameter gradient is bitwise the one a
// full Backward through every layer accumulates, for all four kinds.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for name, g := range testGraphs() {
		x := randomFeatures(g.NumVertices(), 5, 3)
		labels := make([]int, g.NumVertices())
		for i := range labels {
			labels[i] = i%4 - 1 // a quarter masked
		}
		for _, k := range allKinds {
			full, params := NewModel(g, k, []int{5, 8, 3}, 9), NewModel(g, k, []int{5, 8, 3}, 9)
			_, dy := nn.SoftmaxCrossEntropy(full.Forward(x), labels)
			for i := len(full.Layers) - 1; i >= 0; i-- {
				dy = full.Layers[i].Backward(dy)
			}
			_, dLogits := nn.SoftmaxCrossEntropy(params.Forward(x), labels)
			params.Backward(dLogits)
			for i, p := range params.Params() {
				mustBitwiseEqual(t, fmt.Sprintf("%s %v param %d grad", name, k, i), p.Grad, full.Params()[i].Grad)
			}
		}
	}
}

// TestReboundModelAllocatesNoLayerBuffer: layer buffers only grow, so a
// model that has run a graph and is rebound to a smaller one runs a forward
// and backward there without allocating any layer buffer — fewer bytes than
// the smallest one (a vertex row per output class) — and its logits and
// gradients are bitwise a fresh model's. The bytes are the least of 3
// measurements, each rebinding from the larger graph.
func TestReboundModelAllocatesNoLayerBuffer(t *testing.T) {
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	big, small := gen.BarabasiAlbert(600, 4, 2), testGraphs()["ba"]
	xBig, xSmall := randomFeatures(big.NumVertices(), 6, 1), randomFeatures(small.NumVertices(), 6, 2)
	labels := make([]int, small.NumVertices())
	for i := range labels {
		labels[i] = i % 3
	}
	dims := []int{6, 8, 3}
	smallest := uint64(small.NumVertices() * dims[2] * 4)
	for _, k := range allKinds {
		m := NewModel(big, k, dims, 4)
		dLogits := tensor.New(small.NumVertices(), dims[2])
		var logits *tensor.Matrix
		// The least of 3 measurements, each from the same state: an
		// allocation outside this code lands in one window at most.
		got := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			m.Rebind(big)
			_, dBig := nn.SoftmaxCrossEntropy(m.Forward(xBig), make([]int, big.NumVertices()))
			m.Backward(dBig)
			m.Rebind(small)
			for _, p := range m.Params() {
				p.ZeroGrad()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			logits = m.Forward(xSmall)
			nn.SoftmaxCrossEntropyInto(logits, labels, dLogits)
			m.Backward(dLogits)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got >= smallest {
			t.Errorf("%v: rebound step allocated %d B, want < %d (no layer buffer)", k, got, smallest)
		}
		fresh := NewModel(small, k, dims, 4)
		for i, p := range fresh.Params() {
			copy(p.W.Data, m.Params()[i].W.Data)
		}
		mustBitwiseEqual(t, fmt.Sprintf("%v rebound logits", k), logits, fresh.Forward(xSmall))
		_, dFresh := nn.SoftmaxCrossEntropy(fresh.Forward(xSmall), labels)
		fresh.Backward(dFresh)
		for i, p := range fresh.Params() {
			mustBitwiseEqual(t, fmt.Sprintf("%v rebound param %d grad", k, i), m.Params()[i].Grad, p.Grad)
		}
	}
}
