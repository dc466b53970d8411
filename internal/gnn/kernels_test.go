package gnn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// oldMeanApply reimplements the pre-CSR MeanAgg.Apply (per-call
// g.Neighbors(v), sum-then-scale, empty rows skipped) as a reference: the
// CSR refactor must reproduce it bit for bit, including zero rows for
// isolated vertices.
func oldMeanApply(g *graph.Graph, h *tensor.Matrix) *tensor.Matrix {
	n := g.NumVertices()
	out := tensor.New(n, h.Cols)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(graph.V(v))
		if len(ns) == 0 {
			continue
		}
		or := out.Row(v)
		for _, u := range ns {
			hr := h.Row(int(u))
			for j := range or {
				or[j] += hr[j]
			}
		}
		inv := 1 / float32(len(ns))
		for j := range or {
			or[j] *= inv
		}
	}
	return out
}

func oldMeanApplyT(g *graph.Graph, dy *tensor.Matrix) *tensor.Matrix {
	n := g.NumVertices()
	out := tensor.New(n, dy.Cols)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(graph.V(v))
		if len(ns) == 0 {
			continue
		}
		inv := 1 / float32(len(ns))
		dr := dy.Row(v)
		for _, u := range ns {
			or := out.Row(int(u))
			for j := range dr {
				or[j] += inv * dr[j]
			}
		}
	}
	return out
}

func oldSumApply(g *graph.Graph, h *tensor.Matrix) *tensor.Matrix {
	n := g.NumVertices()
	out := tensor.New(n, h.Cols)
	for v := 0; v < n; v++ {
		or := out.Row(v)
		for _, u := range g.Neighbors(graph.V(v)) {
			hr := h.Row(int(u))
			for j := range or {
				or[j] += hr[j]
			}
		}
	}
	return out
}

func mustBitwiseEqual(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise equal)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// testGraphs includes a power-law graph (hub rows stress the nnz-balanced
// split), a sparse ER graph small enough to contain isolated vertices, and
// mixedDegreeGraph.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ba":       gen.BarabasiAlbert(400, 4, 1),
		"sparseER": gen.ErdosRenyi(80, 35, 2), // leaves isolated vertices
		"mixed":    mixedDegreeGraph(),
	}
}

func TestAggregatorsBitwiseDeterministic(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(oldProcs)
	defer tensor.SetParallelism(0)

	for gname, g := range testGraphs() {
		n := g.NumVertices()
		// 56 cols pushes nnz*cols past SerialWorkThreshold on the BA graph,
		// so the parallel path is actually exercised.
		h := tensor.Xavier(n, 56, 3)
		adj := NewNormAdj(g)
		mean := NewMeanAgg(g)
		sum := NewSumAgg(g)

		tensor.SetParallelism(1)
		wantAdj := adj.Apply(h)
		wantMean := mean.Apply(h)
		wantMeanT := mean.ApplyT(h)
		wantSum := sum.Apply(h)
		wantSumT := sum.ApplyT(h)

		// CSR must also reproduce the per-entry references.
		mustBitwiseEqual(t, gname+"/normadj-vs-naive", wantAdj, naiveNormAdjApply(g, h))
		mustBitwiseEqual(t, gname+"/mean-vs-old", wantMean, oldMeanApply(g, h))
		mustBitwiseEqual(t, gname+"/meanT-vs-old", wantMeanT, oldMeanApplyT(g, h))
		mustBitwiseEqual(t, gname+"/sum-vs-old", wantSum, oldSumApply(g, h))

		for _, p := range []int{2, 8} {
			tensor.SetParallelism(p)
			mustBitwiseEqual(t, gname+"/normadj", adj.Apply(h), wantAdj)
			mustBitwiseEqual(t, gname+"/mean", mean.Apply(h), wantMean)
			mustBitwiseEqual(t, gname+"/meanT", mean.ApplyT(h), wantMeanT)
			mustBitwiseEqual(t, gname+"/sum", sum.Apply(h), wantSum)
			mustBitwiseEqual(t, gname+"/sumT", sum.ApplyT(h), wantSumT)
		}
		tensor.SetParallelism(0)
	}
}

// mixedDegreeGraph has vertices of degree 0 (vertex 0), 1, 2 and 3 (vertex
// 8), hubs of degree 30 and 11 (vertices 1 and 2) and a random remainder
// among vertices 40 and up, so its CSR rows take every length modulo four,
// short and long.
func mixedDegreeGraph() *graph.Graph {
	const n = 90
	var edges [][2]graph.V
	for v := 10; v < 40; v++ {
		edges = append(edges, [2]graph.V{1, graph.V(v)})
	}
	for v := 20; v < 31; v++ {
		edges = append(edges, [2]graph.V{2, graph.V(v)})
	}
	edges = append(edges, [2]graph.V{3, 4}, [2]graph.V{5, 6}, [2]graph.V{5, 7}, [2]graph.V{8, 6}, [2]graph.V{8, 7}, [2]graph.V{8, 9})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 80; i++ {
		if u, v := 40+rng.Intn(n-40), 40+rng.Intn(n-40); u != v {
			edges = append(edges, [2]graph.V{graph.V(u), graph.V(v)})
		}
	}
	return graph.FromEdges(n, edges)
}

// naiveNormAdjApply is an independent per-entry reference for NewNormAdj:
// row v adds w·h[u] over g.Neighbors(v) and then the self-loop, with w the
// float32 of 1/sqrt((deg v + 1)(deg u + 1)) in float64, one rounded product
// at a time into a zeroed row.
func naiveNormAdjApply(g *graph.Graph, h *tensor.Matrix) *tensor.Matrix {
	inv := func(v graph.V) float64 { return 1 / math.Sqrt(float64(g.Degree(v)+1)) }
	out := tensor.New(g.NumVertices(), h.Cols)
	for v := 0; v < g.NumVertices(); v++ {
		or := out.Row(v)
		for _, u := range append(append([]graph.V(nil), g.Neighbors(graph.V(v))...), graph.V(v)) {
			w := float32(inv(graph.V(v)) * inv(u))
			for j, hv := range h.Row(int(u)) {
				or[j] += float32(w * hv)
			}
		}
	}
	return out
}

func TestMeanAggIsolatedVerticesZeroRows(t *testing.T) {
	g := gen.ErdosRenyi(60, 20, 5)
	isolated := -1
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.V(v)) == 0 {
			isolated = v
			break
		}
	}
	if isolated < 0 {
		t.Skip("generator produced no isolated vertex")
	}
	m := NewMeanAgg(g)
	out := m.Apply(tensor.Xavier(g.NumVertices(), 8, 9))
	for j, v := range out.Row(isolated) {
		if v != 0 {
			t.Fatalf("isolated vertex %d col %d = %g, want 0", isolated, j, v)
		}
	}
}

// lossesHash is the FNV-64a of the losses' float64 bit patterns, in order.
func lossesHash(losses []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range losses {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrainFullGraphDeterministicAcrossParallelism is the end-to-end
// determinism gate: the entire training loop (aggregation, matmul, dropout,
// Adam) must produce the exact same float64 loss sequence at any kernel
// parallelism — the property the gnndist crash-recovery tests rely on.
//
// The serial run of each kind is also pinned bit for bit (train and test
// accuracy plus a hash of the losses) to values recorded with a ReLU that
// wrote into buffers of its own, so reworking the layers' buffer ownership
// cannot move a result. Float bits depend on the instruction set (FMA
// fusion), hence the pins are checked on amd64 only.
func TestTrainFullGraphDeterministicAcrossParallelism(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(oldProcs)
	defer tensor.SetParallelism(0)

	type pin struct{ trainAcc, testAcc, losses uint64 }
	pinned := map[ModelKind]pin{
		GCN:  {0x3fe2aaaaaaaaaaab, 0x3fdaaaaaaaaaaaab, 0xae635e956e7ad806},
		SAGE: {0x3ff0000000000000, 0x3ff0000000000000, 0xe79d60a7dd023cd7},
		GAT:  {0x3fe6aaaaaaaaaaab, 0x3fe471c71c71c71c, 0x56d3a941211f1bd6},
		GIN:  {0x3fe6aaaaaaaaaaab, 0x3fe471c71c71c71c, 0x688b60519e87a39e},
	}
	task := SyntheticCommunityTask(120, 3, 2, 0.3, 17)
	cfg := TrainConfig{Epochs: 8, LR: 0.01, Seed: 1}
	for _, kind := range []ModelKind{GCN, SAGE, GAT, GIN} {
		tensor.SetParallelism(1)
		m := NewModel(task.G, kind, []int{task.X.Cols, 16, task.NumClasses}, 1)
		want := TrainFullGraph(m, task.X, task.Labels, task.TrainMask, task.TestMask, cfg)
		got := pin{math.Float64bits(want.TrainAcc), math.Float64bits(want.TestAcc), lossesHash(want.Losses)}
		if runtime.GOARCH == "amd64" && got != pinned[kind] {
			t.Errorf("%v: serial run gives %#v, pinned %#v", kind, got, pinned[kind])
		}
		for _, p := range []int{2, 8} {
			tensor.SetParallelism(p)
			m := NewModel(task.G, kind, []int{task.X.Cols, 16, task.NumClasses}, 1)
			got := TrainFullGraph(m, task.X, task.Labels, task.TrainMask, task.TestMask, cfg)
			for ep := range want.Losses {
				if got.Losses[ep] != want.Losses[ep] {
					t.Fatalf("%v: parallelism %d epoch %d loss %.17g != serial %.17g",
						kind, p, ep, got.Losses[ep], want.Losses[ep])
				}
			}
			if got.TestAcc != want.TestAcc || got.TrainAcc != want.TrainAcc {
				t.Fatalf("%v: parallelism %d acc (%g,%g) != serial (%g,%g)",
					kind, p, got.TrainAcc, got.TestAcc, want.TrainAcc, want.TestAcc)
			}
		}
	}
}

// TestKernelAllocs pins the kernels' allocation contracts exactly. Unlike
// -benchmem, testing.AllocsPerRun does not depend on the iteration count: it
// runs each function once as a warm-up (so one-time buffers such as Adam's
// moment state land outside the count) and then averages. AllocsPerRun pins
// GOMAXPROCS to 1, so the default leg resolves to serial execution too.
func TestKernelAllocs(t *testing.T) {
	defer tensor.SetParallelism(0)
	a, b, c := tensor.Xavier(256, 256, 1), tensor.Xavier(256, 256, 2), tensor.New(256, 256)
	g := gen.RMAT(12, 16, 1)
	adj := NewNormAdj(g)
	h, agg := tensor.Xavier(g.NumVertices(), 32, 3), tensor.New(g.NumVertices(), 32)
	task := SyntheticCommunityTask(300, 3, 2, 0.3, 17)
	m := NewModel(task.G, GCN, []int{task.X.Cols, 16, task.NumClasses}, 1)
	opt := nn.NewAdam(0.01)
	masked := maskedLabels(task)
	kernels := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"MatMulInto 256³", 1, func() { tensor.MatMulInto(a, b, c) }},
		{"NewNormAdj ApplyInto RMAT(12,16)", 0, func() { adj.ApplyInto(h, agg) }},
		{"GCN epoch", 17, func() {
			_, dLogits := nn.SoftmaxCrossEntropy(m.Forward(task.X), masked)
			m.Backward(dLogits)
			opt.Step(m.Params())
		}},
	}
	for _, p := range []int{1, 0} {
		tensor.SetParallelism(p)
		for _, k := range kernels {
			if got := testing.AllocsPerRun(10, k.fn); got > k.max {
				t.Errorf("parallelism %d: %s allocates %.1f times per run, want ≤%.0f", p, k.name, got, k.max)
			}
		}
	}
}

// maskedLabels returns the task's labels with every non-training vertex set
// to -1, the form SoftmaxCrossEntropy ignores.
func maskedLabels(task *Task) []int {
	masked := make([]int, len(task.Labels))
	for i, l := range task.Labels {
		if !task.TrainMask[i] {
			masked[i] = -1
		} else {
			masked[i] = l
		}
	}
	return masked
}

func benchmarkAggNormAdj(b *testing.B, p int) {
	tensor.SetParallelism(p)
	defer tensor.SetParallelism(0)
	g := gen.RMAT(15, 12, 1) // ~32k vertices, power-law
	adj := NewNormAdj(g)
	h := tensor.Xavier(g.NumVertices(), 32, 3)
	out := tensor.New(g.NumVertices(), 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj.ApplyInto(h, out)
	}
}

func BenchmarkAggNormAdjSerial(b *testing.B)   { benchmarkAggNormAdj(b, 1) }
func BenchmarkAggNormAdjParallel(b *testing.B) { benchmarkAggNormAdj(b, 0) }

// BenchmarkTrainEpochGCN matches the workload measured at the growth seed
// (260512 ns/op, 158722 B/op, 146 allocs/op on the reference machine), so
// -benchmem runs show the buffer-reuse delta directly.
func BenchmarkTrainEpochGCN(b *testing.B) {
	task := SyntheticCommunityTask(300, 3, 2, 0.3, 17)
	m := NewModel(task.G, GCN, []int{task.X.Cols, 16, task.NumClasses}, 1)
	opt := nn.NewAdam(0.01)
	masked := maskedLabels(task)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(task.X)
		_, dLogits := nn.SoftmaxCrossEntropy(logits, masked)
		m.Backward(dLogits)
		opt.Step(m.Params())
	}
}
