package gnn

import (
	"math"
	"math/rand"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// twoLayers is gradCheck's default model shape: 3 input features, a hidden
// layer of 4 and 2 classes.
var twoLayers = []int{3, 4, 2}

// gradCheck compares the analytic gradient of the mean cross-entropy loss
// w.r.t. every parameter entry (and the input) against central differences,
// for a kind model with layer widths dims.
func gradCheck(t *testing.T, g *graph.Graph, kind ModelKind, dims []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	n := g.NumVertices()
	inDim, classes := dims[0], dims[len(dims)-1]
	x := tensor.New(n, inDim)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	model := NewModel(g, kind, dims, 3)

	loss := func() float64 {
		l, _ := nn.SoftmaxCrossEntropy(model.Forward(x), labels)
		return l
	}
	// analytic gradients, the input's through every layer's full Backward
	// (Model.Backward stops at the first layer's parameters)
	_, dX := nn.SoftmaxCrossEntropy(model.Forward(x), labels)
	for i := len(model.Layers) - 1; i >= 0; i-- {
		dX = model.Layers[i].Backward(dX)
	}

	check := func(name string, ptr *float32, analytic float32) {
		const eps = 1e-2
		orig := *ptr
		*ptr = orig + eps
		lp := loss()
		*ptr = orig - eps
		lm := loss()
		*ptr = orig
		numeric := (lp - lm) / (2 * eps)
		// float32 forward + finite differences: entries this small are
		// dominated by rounding noise (and ReLU kinks), skip them
		if math.Abs(numeric) < 5e-3 && math.Abs(float64(analytic)) < 5e-3 {
			return
		}
		denom := math.Abs(numeric) + math.Abs(float64(analytic))
		if math.Abs(numeric-float64(analytic))/denom > 0.12 {
			t.Errorf("%s %s: analytic %g numeric %g", kind, name, analytic, numeric)
		}
	}
	for pi, p := range model.Params() {
		stride := len(p.W.Data)/5 + 1
		for i := 0; i < len(p.W.Data); i += stride {
			check("param", &p.W.Data[i], p.Grad.Data[i])
		}
		_ = pi
	}
	// input gradient (spot check): perturb x entries
	for i := 0; i < len(x.Data); i += len(x.Data)/6 + 1 {
		const eps = 1e-2
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dX.Data[i])
		if math.Abs(numeric) < 5e-3 && math.Abs(analytic) < 5e-3 {
			continue
		}
		denom := math.Abs(numeric) + math.Abs(analytic)
		if math.Abs(numeric-analytic)/denom > 0.12 {
			t.Errorf("%s input[%d]: analytic %g numeric %g", kind, i, analytic, numeric)
		}
	}
}

func testGraph() *graph.Graph {
	// small connected graph with varied degrees plus an isolated vertex
	b := graph.NewBuilder(7, false)
	for _, e := range [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {3, 4}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build() // vertex 6 isolated
}

// directedTestGraph is a directed 7-vertex graph: a 4-cycle with chord
// 0→2, a 3-cycle 3→4→5→3, the arc 2→5, and vertex 6 isolated.
func directedTestGraph() *graph.Graph {
	b := graph.NewBuilder(7, true)
	for _, e := range [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {3, 4}, {4, 5}, {5, 3}, {2, 5}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// randomDirected draws arcs uniform random arcs over n vertices (the builder
// drops self-loops and duplicates).
func randomDirected(n, arcs int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, true)
	for i := 0; i < arcs; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}

func TestGradCheckGCN(t *testing.T)  { gradCheck(t, testGraph(), GCN, twoLayers) }
func TestGradCheckSAGE(t *testing.T) { gradCheck(t, testGraph(), SAGE, twoLayers) }
func TestGradCheckGAT(t *testing.T)  { gradCheck(t, testGraph(), GAT, twoLayers) }

func TestGradCheckOnRandomGraph(t *testing.T) {
	g := gen.ErdosRenyi(12, 30, 5)
	for _, kind := range []ModelKind{GCN, SAGE, GAT} {
		gradCheck(t, g, kind, twoLayers)
	}
}

// TestGradCheckDirected checks every kind on directed graphs, where A is not
// symmetric, so a backward that applied A in place of Aᵀ gets the input and
// parameter gradients wrong. The model is one layer: with no hidden ReLU,
// no activation kink blurs the central differences.
func TestGradCheckDirected(t *testing.T) {
	for _, g := range []*graph.Graph{directedTestGraph(), randomDirected(10, 30, 4)} {
		for _, kind := range []ModelKind{GCN, SAGE, GAT, GIN} {
			gradCheck(t, g, kind, []int{3, 2})
		}
	}
}

func TestNormAdjRowsSumBounded(t *testing.T) {
	g := gen.Clique(5)
	a := NewNormAdj(g)
	h := tensor.New(5, 1)
	for i := range h.Data {
		h.Data[i] = 1
	}
	out := a.Apply(h)
	// Â of a regular graph has row sums 1 (it is doubly stochastic there)
	for v := 0; v < 5; v++ {
		if math.Abs(float64(out.At(v, 0))-1) > 1e-5 {
			t.Fatalf("row sum %f", out.At(v, 0))
		}
	}
}

// TestMeanAggTransposeIsAdjoint checks the adjoint property
// ⟨Apply(h), y⟩ = ⟨h, ApplyT(y)⟩ for every operator constructor, on an
// undirected and on a directed graph.
func TestMeanAggTransposeIsAdjoint(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"undirected", gen.ErdosRenyi(15, 40, 2)}, {"directed", randomDirected(15, 40, 2)}}
	ops := []struct {
		name string
		new  func(*graph.Graph) *Agg
	}{{"NewNormAdj", NewNormAdj}, {"NewMeanAgg", NewMeanAgg}, {"NewSumAgg", NewSumAgg}}
	for _, gc := range graphs {
		for _, op := range ops {
			agg := op.new(gc.g)
			rng := rand.New(rand.NewSource(1))
			h := tensor.New(15, 3)
			y := tensor.New(15, 3)
			for i := range h.Data {
				h.Data[i] = rng.Float32()
				y.Data[i] = rng.Float32()
			}
			ah := agg.Apply(h)
			aty := agg.ApplyT(y)
			var lhs, rhs float64
			for i := range ah.Data {
				lhs += float64(ah.Data[i]) * float64(y.Data[i])
				rhs += float64(h.Data[i]) * float64(aty.Data[i])
			}
			if math.Abs(lhs-rhs) > 1e-4 {
				t.Errorf("%s on the %s graph: adjoint violated: %f vs %f", op.name, gc.name, lhs, rhs)
			}
		}
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	logits := tensor.FromRows([][]float32{{1, 2, 0.5}, {0, 0, 0}, {3, -1, 0}})
	labels := []int{1, -1, 0} // middle row masked
	loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
	if loss <= 0 {
		t.Fatal("loss must be positive")
	}
	// masked row gradient is zero
	for j := 0; j < 3; j++ {
		if grad.At(1, j) != 0 {
			t.Fatal("masked row has gradient")
		}
	}
	// gradient rows sum to zero (softmax property)
	for _, i := range []int{0, 2} {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("row %d gradient sums to %g", i, s)
		}
	}
}
