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
	"graphsys/internal/tensor"
)

// bitsDigest is the FNV-64a of the final loss's float64 bits followed by
// every master weight's float32 bits, parameter by parameter, row-major.
func bitsDigest(res DistResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.Loss))
	h.Write(b[:])
	for _, p := range res.master {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// sampledTrainers are the three sampled-minibatch trainers.
var sampledTrainers = []struct {
	name  string
	train func(*gnn.Task, TrainerConfig) (DistResult, error)
}{{"sync", TrainSync}, {"sancus", TrainSancus}, {"stale", TrainBoundedStale}}

// TestTrainSyncBitsPinned pins the sampled trainers bit for bit: a digest of
// the final loss and the master weights, with the step count and gradient
// bytes, for TrainSync, TrainSancus and TrainBoundedStale. GCN runs at
// workers 1, 2 and 4, in memory and from a block-cache Source; SAGE, GAT and
// GIN run at 2 workers, so every layer kind's per-batch model is covered.
// Every case runs at kernel parallelism 1 and 2. The values were recorded
// while each minibatch still built a fresh gnn.Model, so any reuse of
// models or buffers across batches must reproduce them exactly. Float bits
// depend on the instruction set (FMA fusion), hence amd64 only.
func TestTrainSyncBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned float bits are recorded on amd64")
	}
	type pin struct {
		digest    uint64
		steps     int64
		gradBytes int64
	}
	want := map[string]pin{ // trainer/kind/workers/source
		"sync/GCN/w1/disk=false":         {0x96b8f4b622c789e, 6, 6624},
		"sancus/GCN/w1/disk=false":       {0x9643504d22c32104, 6, 6624},
		"stale/GCN/w1/disk=false":        {0x88ed04f7e4f1031b, 6, 6624},
		"sync/GCN/w1/disk=true":          {0x96b8f4b622c789e, 6, 6624},
		"sancus/GCN/w1/disk=true":        {0x9643504d22c32104, 6, 6624},
		"stale/GCN/w1/disk=true":         {0x88ed04f7e4f1031b, 6, 6624},
		"sync/GCN/w2/disk=false":         {0x5dd7eca22e18ca94, 4, 8832},
		"sancus/GCN/w2/disk=false":       {0x286291f59fe1e210, 4, 8832},
		"stale/GCN/w2/disk=false":        {0xc112f8b5a2b65319, 10, 11040},
		"sync/GCN/w2/disk=true":          {0x5dd7eca22e18ca94, 4, 8832},
		"sancus/GCN/w2/disk=true":        {0x286291f59fe1e210, 4, 8832},
		"stale/GCN/w2/disk=true":         {0xc112f8b5a2b65319, 10, 11040},
		"sync/GCN/w4/disk=false":         {0x68ddc0976c43c48e, 3, 13248},
		"sancus/GCN/w4/disk=false":       {0x6f19f14d711cca0e, 3, 13248},
		"stale/GCN/w4/disk=false":        {0xabd7424d2bf5465e, 19, 20976},
		"sync/GCN/w4/disk=true":          {0x68ddc0976c43c48e, 3, 13248},
		"sancus/GCN/w4/disk=true":        {0x6f19f14d711cca0e, 3, 13248},
		"stale/GCN/w4/disk=true":         {0xabd7424d2bf5465e, 19, 20976},
		"sync/GraphSAGE/w2/disk=false":   {0xfdd1e3f24e91ad34, 4, 17024},
		"sancus/GraphSAGE/w2/disk=false": {0x5095520fc14abfe0, 4, 17024},
		"stale/GraphSAGE/w2/disk=false":  {0xf7f3f3e6aac1e1a4, 10, 21280},
		"sync/GAT/w2/disk=false":         {0xf90d60ba02ee8e3, 4, 9472},
		"sancus/GAT/w2/disk=false":       {0x813deb58154e4e7d, 4, 9472},
		"stale/GAT/w2/disk=false":        {0x85096c487395f9e4, 10, 11840},
		"sync/GIN/w2/disk=false":         {0x239621121545faed, 4, 8832},
		"sancus/GIN/w2/disk=false":       {0x6f080cf670a68ec8, 4, 8832},
		"stale/GIN/w2/disk=false":        {0xde2288508c14eb1e, 10, 11040},
	}
	task := gnn.SyntheticCommunityTask(2000, 4, 8, 0.5, 7)
	type run struct {
		kind    gnn.ModelKind
		workers int
		disk    bool
	}
	var runs []run
	for _, w := range []int{1, 2, 4} {
		runs = append(runs, run{gnn.GCN, w, false}, run{gnn.GCN, w, true})
	}
	for _, k := range []gnn.ModelKind{gnn.SAGE, gnn.GAT, gnn.GIN} {
		runs = append(runs, run{k, 2, false})
	}
	defer tensor.SetParallelism(0)
	for _, par := range []int{1, 2} {
		for _, r := range runs {
			for _, tr := range sampledTrainers {
				cfg := TrainerConfig{Workers: r.workers, Kind: r.kind, TimeBudget: 6, BatchSize: 16, Seed: 3,
					SancusTau: 5e-3, Staleness: 1, WorkerSpeed: []float64{1, 1.5, 1, 2}[:r.workers]}
				cfg.Parallelism = par
				if r.disk {
					cfg.Source = openDisk(t, task, r.workers)
				}
				res, err := tr.train(task, cfg)
				if err != nil {
					t.Fatalf("%s %v: %v", tr.name, r, err)
				}
				key := fmt.Sprintf("%s/%v/w%d/disk=%v", tr.name, r.kind, r.workers, r.disk)
				got := pin{bitsDigest(res), res.Steps, res.GradBytes}
				if w, ok := want[key]; !ok || got != w {
					t.Errorf("parallelism %d %s: got %#v, want %#v", par, key, got, w)
				}
			}
		}
	}
}

// TestWorkerStepAllocatesNoLayerBuffer: each worker keeps the one model
// newDist built for it (the run builds workers + 1 models with the master),
// and its layer buffers only grow. So a worker's first step allocates its
// buffers, while replaying that step — the same batch, its RNG rewound —
// allocates none: at least the first layer's aggregation and output fewer
// bytes, for every layer kind, with bitwise the same gradients.
func TestWorkerStepAllocatesNoLayerBuffer(t *testing.T) {
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	task := gnn.SyntheticCommunityTask(2000, 4, 8, 0.5, 7)
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, kind := range []gnn.ModelKind{gnn.GCN, gnn.SAGE, gnn.GAT, gnn.GIN} {
		d, err := newDist(task, TrainerConfig{Workers: 2, Kind: kind, BatchSize: 32, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		_, master := newMaster(d)
		for w := range d.steps {
			model := d.steps[w].model
			mark := d.srcs[w].n
			var first, replay weights
			cold := allocated(func() { first, _ = d.gradStep(w, master) })
			d.srcs[w].rewind(mark)
			d.rngs[w] = rand.New(d.srcs[w])
			warm := allocated(func() { replay, _ = d.gradStep(w, master) })
			if d.steps[w].model != model {
				t.Fatalf("%v worker %d: gradStep replaced the worker's model", kind, w)
			}
			n := len(d.steps[w].labels) // the batch subgraph's vertices
			layer := uint64(n * (d.dims[0] + d.dims[1]) * 4)
			t.Logf("%v worker %d: %d vertices, first step %d B, replay %d B", kind, w, n, cold, warm)
			if cold < warm+layer {
				t.Errorf("%v worker %d: replayed step allocated %d B of the first step's %d B, want at least %d B fewer (its layer buffers)",
					kind, w, warm, cold, layer)
			}
			for i := range first {
				mustBitwiseEqual(t, fmt.Sprintf("%v worker %d grad %d", kind, w, i), replay[i], first[i])
			}
		}
		d.close()
	}
}
