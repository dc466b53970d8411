package gnndist

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"graphsys/internal/gnn"
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
// bit: test accuracy, refresh count, metered bytes and a hash of the final
// logits, at kernel parallelism 1 and 2. The wanted values were recorded from
// the per-vertex slice-of-slices trainer with a serial transpose scatter, so
// any rework of the epoch loop or of delayedAdj must reproduce it exactly.
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
		{1, 1}: {0x3feff84fc46a3237, 7, 0, 0xe555ce72e506c492},
		{1, 2}: {0x3feff84fc46a3237, 7, 518336, 0x955ceb6d74360a4e},
		{1, 4}: {0x3fefe8ef4d3e96a5, 7, 3507840, 0x5f7f845b438d0bd4},
		{3, 1}: {0x3feff84fc46a3237, 3, 0, 0xe555ce72e506c492},
		{3, 2}: {0x3feff84fc46a3237, 3, 222144, 0xc7e9e5ea6b08af07},
		{3, 4}: {0x3fefe8ef4d3e96a5, 3, 1503360, 0x8e20a65e39e1ad2f},
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
