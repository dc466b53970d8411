package gnndist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/partition"
	"graphsys/internal/tensor"
)

// logitsHash is the FNV-64a of the logits' float32 bit patterns, row-major.
func logitsHash(m *tensor.Matrix) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDistGNNBitsPinned pins the delayed-update trainer's outputs bit for
// bit: test accuracy, refresh count, metered bytes and a hash of the
// evaluation's logits, at kernel parallelism 1 and 2, so any rework of the
// epoch loop or of delayedAdj must reproduce them exactly. The values were
// recorded when the trainer first evaluated the trained model after its
// loop; TestDistGNNEvaluationIsOneMoreForward ties them to the values before.
// Float bits depend on the instruction set (FMA fusion), hence amd64 only.
func TestDistGNNBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned float bits are recorded on amd64")
	}
	type pin struct {
		acc       uint64
		refreshes int64
		bytes     int64
		logits    uint64
	}
	want := map[[2]int]pin{ // {RefreshEvery, Workers}
		{1, 1}: {0x3feff84fc46a3237, 7, 0, 0xbd7ceca9f97e4072},
		{1, 2}: {0x3feff84fc46a3237, 7, 592384, 0xd127dd85a2cf7a23},
		{1, 4}: {0x3feff84fc46a3237, 7, 4008960, 0x906958eba8b8576a},
		{3, 1}: {0x3feff84fc46a3237, 3, 0, 0xbd7ceca9f97e4072},
		{3, 2}: {0x3feff84fc46a3237, 3, 296192, 0xc48215abf5d7f3f6},
		{3, 4}: {0x3feff84fc46a3237, 3, 2004480, 0xda220116cc744976},
	}
	task := gnn.SyntheticCommunityTask(3000, 4, 8, 0.3, 5)
	defer tensor.SetParallelism(0)
	for _, par := range []int{1, 2} {
		tensor.SetParallelism(par)
		for _, refresh := range []int{1, 3} {
			for _, workers := range []int{1, 2, 4} {
				res, logits := trainDistGNN(task, DistGNNConfig{Workers: workers, Epochs: 7, RefreshEvery: refresh, Seed: 9})
				got := pin{math.Float64bits(res.TestAcc), res.Refreshes, res.Net.Bytes, logitsHash(logits)}
				if w := want[[2]int{refresh, workers}]; got != w {
					t.Errorf("parallelism %d refresh %d workers %d: got %#v, want %#v", par, refresh, workers, got, w)
				}
			}
		}
	}
}

// TestDistGNNEvaluationIsOneMoreForward pins what evaluating the trained
// model adds: one forward and one metered boundary exchange, nothing else.
// At RefreshEvery 1 every epoch's forward already reads fresh rows, so a
// 6-epoch run must report exactly what the trainer reported for 7 epochs
// when its accuracy and logits were those of the last training epoch's own
// forward (recorded values below), with 6 refreshes and 7 exchanges.
func TestDistGNNEvaluationIsOneMoreForward(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned float bits are recorded on amd64")
	}
	type pin struct {
		acc       uint64
		refreshes int64
		bytes     int64
		logits    uint64
	}
	want := map[int]pin{ // by Workers
		1: {0x3feff84fc46a3237, 6, 0, 0xe555ce72e506c492},
		2: {0x3feff84fc46a3237, 6, 518336, 0x955ceb6d74360a4e},
		4: {0x3fefe8ef4d3e96a5, 6, 3507840, 0x5f7f845b438d0bd4},
	}
	task := gnn.SyntheticCommunityTask(3000, 4, 8, 0.3, 5)
	defer tensor.SetParallelism(0)
	for _, par := range []int{1, 2} {
		tensor.SetParallelism(par)
		for _, workers := range []int{1, 2, 4} {
			res, logits := trainDistGNN(task, DistGNNConfig{Workers: workers, Epochs: 6, RefreshEvery: 1, Seed: 9})
			got := pin{math.Float64bits(res.TestAcc), res.Refreshes, res.Net.Bytes, logitsHash(logits)}
			if got != want[workers] {
				t.Errorf("parallelism %d workers %d: got %#v, want %#v", par, workers, got, want[workers])
			}
		}
	}
}

// mixedDegreeGraph has vertices of degree 0 (vertex 0), 1, 2 and 3 (vertex
// 8), hubs of degree 30 and 11 (vertices 1 and 2) and a random remainder
// among vertices 40 and up, so its CSR rows take every length modulo four,
// short and long. (internal/gnn's kernel tests use the same graph.)
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

// naiveDelayed is an independent per-entry reference for delayedAdj. Row v
// of the forward product adds w·src[u] over g.Neighbors(v) and then the
// self-loop, src being stale for a cross-partition edge and fresh otherwise;
// the backward product scatters w·dy[v] into row u over the same local
// entries, v ascending. w is the float32 of 1/sqrt((deg v + 1)(deg u + 1))
// in float64, and each product is rounded before it is added.
func naiveDelayed(g *graph.Graph, part *partition.Partition, fresh, stale, dy *tensor.Matrix) (fwd, bwdT *tensor.Matrix) {
	n := g.NumVertices()
	inv := func(v graph.V) float64 { return 1 / math.Sqrt(float64(g.Degree(v)+1)) }
	fwd, bwdT = tensor.New(n, fresh.Cols), tensor.New(n, dy.Cols)
	for v := 0; v < n; v++ {
		for _, u := range append(append([]graph.V(nil), g.Neighbors(graph.V(v))...), graph.V(v)) {
			w := float32(inv(graph.V(v)) * inv(u))
			src, local := fresh, part.Assign[u] == part.Assign[v]
			if !local {
				src = stale
			}
			or := fwd.Row(v)
			for j, hv := range src.Row(int(u)) {
				or[j] += float32(w * hv)
			}
			if local {
				or := bwdT.Row(int(u))
				for j, dv := range dy.Row(v) {
					or[j] += float32(w * dv)
				}
			}
		}
	}
	return fwd, bwdT
}

// TestDelayedAdjMatchesNaiveReference holds apply and applyLocalT to the
// per-entry reference bit for bit, over rows of every length class, at
// parallelism 1, 2 and 8 (1000 columns take both kernels past
// SerialWorkThreshold), into buffers with stale contents.
func TestDelayedAdjMatchesNaiveReference(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(oldProcs)
	defer tensor.SetParallelism(0)

	g := mixedDegreeGraph()
	part := partition.Hash(g, 3)
	adj := newDelayedAdj(g, part)
	n := g.NumVertices()
	fresh, stale, dy := tensor.Xavier(n, 1000, 1), tensor.Xavier(n, 1000, 2), tensor.Xavier(n, 1000, 3)
	wantFwd, wantBwdT := naiveDelayed(g, part, fresh, stale, dy)
	for _, p := range []int{1, 2, 8} {
		tensor.SetParallelism(p)
		out := tensor.New(n, 1000)
		for i := range out.Data {
			out.Data[i] = float32(i)
		}
		adj.apply(fresh, stale, out)
		mustBitwiseEqual(t, fmt.Sprintf("apply p=%d", p), out, wantFwd)
		adj.applyLocalT(dy, out)
		mustBitwiseEqual(t, fmt.Sprintf("applyLocalT p=%d", p), out, wantBwdT)
	}
}

func mustBitwiseEqual(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise equal)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDistGNNEpochAllocs: an epoch's buffers are owned by the trainer, so
// each extra epoch allocates only SoftmaxCrossEntropy's n×classes gradient
// plus small change (kernel fan-out closures at parallelism 2).
func TestDistGNNEpochAllocs(t *testing.T) {
	task := gnn.SyntheticCommunityTask(3000, 4, 8, 0.3, 5)
	part := partition.Metis(task.G, 4)
	allocated := func(epochs int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		TrainDistGNN(task, DistGNNConfig{Workers: 4, Part: part, Epochs: epochs, Seed: 9})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	limit := uint64(task.G.NumVertices()*task.NumClasses*4 + 8<<10)
	defer tensor.SetParallelism(0)
	for _, par := range []int{1, 2} {
		tensor.SetParallelism(par)
		allocated(2) // warm the kernel pool and the optimiser's code paths
		short, long := allocated(2), allocated(6)
		t.Logf("parallelism %d: %d B per extra epoch (limit %d)", par, int64(long-short)/4, limit)
		if long < short || (long-short)/4 > limit {
			t.Errorf("parallelism %d: %d B per extra epoch (2 epochs %d B, 6 epochs %d B), want ≤ %d", par, int64(long-short)/4, short, long, limit)
		}
	}
}
