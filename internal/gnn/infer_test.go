package gnn

import (
	"fmt"
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
			want := m.Forward(x)
			for _, tile := range []int{1, 7, nv} {
				mustBitwiseEqual(t, fmt.Sprintf("%v n=%d parallelism %d tile %d", k, nv, par, tile), m.Infer(x, tile), want)
			}
		}
	})
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
// gradients are bitwise a fresh model's.
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
		_, dBig := nn.SoftmaxCrossEntropy(m.Forward(xBig), make([]int, big.NumVertices()))
		m.Backward(dBig)
		m.Rebind(small)
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		dLogits := tensor.New(small.NumVertices(), dims[2])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		logits := m.Forward(xSmall)
		nn.SoftmaxCrossEntropyInto(logits, labels, dLogits)
		m.Backward(dLogits)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= smallest {
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
