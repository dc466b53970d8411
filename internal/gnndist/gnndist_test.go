package gnndist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/partition"
	"graphsys/internal/tensor"
)

func TestFeatureStoreAccounting(t *testing.T) {
	g := gen.Grid(4, 4)
	x := tensor.Xavier(16, 4, 1)
	part := partition.Range(g, 2) // vertices 0-7 on worker 0, 8-15 on worker 1
	net := cluster.NewNetwork(2)
	fs := NewFeatureStore(x, part, net)
	got := fs.Fetch(0, []graph.V{0, 1, 8, 9})
	if fs.Local != 2 || fs.Misses != 2 {
		t.Fatalf("local=%d misses=%d", fs.Local, fs.Misses)
	}
	if net.Stats().Bytes != 2*fs.RowBytes() {
		t.Fatalf("bytes=%d", net.Stats().Bytes)
	}
	// returned rows are correct
	for i, v := range []graph.V{0, 1, 8, 9} {
		for j := 0; j < 4; j++ {
			if got.At(i, j) != x.At(int(v), j) {
				t.Fatal("wrong feature row")
			}
		}
	}
}

func TestFeatureCacheAbsorbsHubs(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 2)
	x := tensor.Xavier(200, 4, 1)
	part := partition.Hash(g, 4)
	// fetch every vertex's neighborhood from worker 0, twice
	fetchAll := func(fs *FeatureStore) int64 {
		for v := graph.V(0); int(v) < 200; v++ {
			fs.Fetch(0, g.Neighbors(v))
		}
		return fs.Misses
	}
	netA := cluster.NewNetwork(4)
	fsA := NewFeatureStore(x, part, netA)
	missNoCache := fetchAll(fsA)

	netB := cluster.NewNetwork(4)
	fsB := NewFeatureStore(x, part, netB)
	fsB.EnableCache(g, 20, 4)
	missCache := fetchAll(fsB)
	if missCache >= missNoCache {
		t.Fatalf("cache did not reduce misses: %d vs %d", missCache, missNoCache)
	}
	if fsB.Hits == 0 {
		t.Fatal("no cache hits")
	}
}

func TestQuantizerRatioAndAccuracy(t *testing.T) {
	m := tensor.Xavier(20, 30, 3)
	q8 := NewQuantizer(8, false)
	out := q8.Compress(m)
	if r := q8.CompressionRatio(); r < 3 || r > 4.1 {
		t.Fatalf("int8 ratio = %f", r)
	}
	// int8 reconstruction error is small relative to the value range
	if tensor.MaxAbsDiff(out, m) > 0.01 {
		t.Fatalf("int8 error %f too large", tensor.MaxAbsDiff(out, m))
	}
	q32 := NewQuantizer(32, false)
	out32 := q32.Compress(m)
	if tensor.MaxAbsDiff(out32, m) != 0 {
		t.Fatal("32-bit must be lossless")
	}
	if q32.CompressionRatio() != 1 {
		t.Fatal("32-bit ratio must be 1")
	}
	q4 := NewQuantizer(4, false)
	out4 := q4.Compress(m)
	if tensor.MaxAbsDiff(out4, m) <= tensor.MaxAbsDiff(out, m) {
		t.Fatal("int4 must be lossier than int8")
	}
}

func TestQuantizerErrorCompensation(t *testing.T) {
	// repeatedly transmitting the same matrix: with error feedback the
	// RUNNING MEAN of transmissions converges to the true value
	m := tensor.Xavier(5, 8, 7)
	q := NewQuantizer(2, true)
	sum := tensor.New(5, 8)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		sum.AddInPlace(q.Compress(m))
	}
	sum.Scale(1.0 / rounds)
	qn := NewQuantizer(2, false)
	single := qn.Compress(m)
	if tensor.MaxAbsDiff(sum, m) >= tensor.MaxAbsDiff(single, m) {
		t.Fatalf("EC mean error %f not better than single-shot %f",
			tensor.MaxAbsDiff(sum, m), tensor.MaxAbsDiff(single, m))
	}
}

func TestPipelineMakespans(t *testing.T) {
	// 2 stages × 3 batches, uniform time 1
	times := StageTimes{{1, 1, 1}, {1, 1, 1}}
	if s := SequentialMakespan(times); s != 6 {
		t.Fatalf("sequential = %f", s)
	}
	if p := PipelinedMakespan(times); p != 4 { // classic (s+b-1)
		t.Fatalf("pipelined = %f", p)
	}
	// bottleneck stage dominates
	times2 := StageTimes{{1, 1, 1, 1}, {5, 5, 5, 5}, {1, 1, 1, 1}}
	p := PipelinedMakespan(times2)
	if p != 1+4*5+1 {
		t.Fatalf("bottleneck pipeline = %f", p)
	}
	if PipelinedMakespan(StageTimes{}) != 0 || SequentialMakespan(StageTimes{}) != 0 {
		t.Fatal("empty schedule")
	}
}

func distTask() *gnn.Task {
	return gnn.SyntheticCommunityTask(240, 3, 2, 0.3, 11)
}

func TestTrainSyncReachesAccuracy(t *testing.T) {
	res, err := TrainSync(distTask(), TrainerConfig{Workers: 4, TimeBudget: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 0.8 {
		t.Fatalf("sync accuracy %.3f", res.TestAcc)
	}
	if res.SyncRounds == 0 || res.Net.Bytes == 0 {
		t.Fatal("no rounds or traffic recorded")
	}
}

func TestBoundedStaleBeatsSyncUnderStragglers(t *testing.T) {
	task := distTask()
	speeds := []float64{1, 1, 1, 5} // one 5× straggler
	sync, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 40, WorkerSpeed: speeds, Seed: 2})
	async, _ := TrainBoundedStale(task, TrainerConfig{Workers: 4, TimeBudget: 40, WorkerSpeed: speeds, Staleness: 4, Seed: 2})
	// sync applies one aggregated step per round of cost 5; async applies
	// one step per worker-step, so it lands far more updates
	if async.Steps <= sync.Steps*2 {
		t.Fatalf("async steps %d should far exceed sync steps %d", async.Steps, sync.Steps)
	}
	if async.TestAcc < 0.75 {
		t.Fatalf("async accuracy %.3f collapsed", async.TestAcc)
	}
}

func TestSancusSkipsBroadcasts(t *testing.T) {
	task := distTask()
	sancus, _ := TrainSancus(task, TrainerConfig{Workers: 4, TimeBudget: 30, SancusTau: 1e-3, Seed: 3})
	if sancus.Skipped == 0 {
		t.Fatal("Sancus never skipped a broadcast")
	}
	sync, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 30, Seed: 3})
	if sancus.Net.Bytes >= sync.Net.Bytes {
		t.Fatalf("Sancus bytes %d not below sync %d", sancus.Net.Bytes, sync.Net.Bytes)
	}
	if sancus.TestAcc < sync.TestAcc-0.15 {
		t.Fatalf("Sancus accuracy %.3f collapsed vs sync %.3f", sancus.TestAcc, sync.TestAcc)
	}
}

func TestQuantizedTrainingSavesBytesKeepsAccuracy(t *testing.T) {
	task := distTask()
	fp32, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 25, Seed: 4})
	int8, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 25, Seed: 4, QuantBits: 8, QuantCompensate: true})
	// per-row fp32 scales cap the ratio below 4× on skinny GNN weight
	// matrices; 2× is the conservative expectation
	if int8.GradBytes >= fp32.GradBytes/2 {
		t.Fatalf("int8 grad bytes %d not well below fp32 %d", int8.GradBytes, fp32.GradBytes)
	}
	if int8.TestAcc < fp32.TestAcc-0.1 {
		t.Fatalf("int8 accuracy %.3f vs fp32 %.3f", int8.TestAcc, fp32.TestAcc)
	}
}

func TestPartitioningReducesRemoteFetches(t *testing.T) {
	task := distTask()
	hash, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 15, Seed: 5,
		Part: partition.Hash(task.G, 4)})
	metis, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 15, Seed: 5,
		Part: partition.Metis(task.G, 4)})
	if metis.RemoteFrac >= hash.RemoteFrac {
		t.Fatalf("metis remote %.3f not below hash %.3f", metis.RemoteFrac, hash.RemoteFrac)
	}
}

func TestPushPullEquivalenceAndTraffic(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 1)
	const D, H, k = 64, 8, 4
	x := tensor.Xavier(100, D, 2)
	w1 := tensor.Xavier(D, H, 3)
	part := partition.Hash(g, k)
	fd := partition.NewFeatureDim(D, k)
	batch := []graph.V{3, 17, 42, 77, 91}

	netPull := cluster.NewNetwork(k)
	zPull, bytesPull := PullLayer1(netPull, part, x, w1, batch, 0)
	netPush := cluster.NewNetwork(k)
	zPush, bytesPush := PushPullLayer1(netPush, fd, x, w1, batch, 0)
	if tensor.MaxAbsDiff(zPull, zPush) > 1e-4 {
		t.Fatalf("push-pull result differs: %g", tensor.MaxAbsDiff(zPull, zPush))
	}
	// D=64 ≫ H=8: push-pull must transfer far less
	if bytesPush >= bytesPull {
		t.Fatalf("push-pull bytes %d not below pull %d", bytesPush, bytesPull)
	}
}

func TestDistGNNDelayedUpdates(t *testing.T) {
	task := distTask()
	syncRun := TrainDistGNN(task, DistGNNConfig{Workers: 4, Epochs: 40, RefreshEvery: 1, Seed: 6})
	delayed := TrainDistGNN(task, DistGNNConfig{Workers: 4, Epochs: 40, RefreshEvery: 4, Seed: 6})
	if delayed.Net.Bytes >= syncRun.Net.Bytes {
		t.Fatalf("delayed bytes %d not below sync %d", delayed.Net.Bytes, syncRun.Net.Bytes)
	}
	if delayed.Refreshes >= syncRun.Refreshes {
		t.Fatalf("refreshes %d vs %d", delayed.Refreshes, syncRun.Refreshes)
	}
	if syncRun.TestAcc < 0.8 {
		t.Fatalf("sync full-graph accuracy %.3f", syncRun.TestAcc)
	}
	if delayed.TestAcc < syncRun.TestAcc-0.12 {
		t.Fatalf("delayed accuracy %.3f collapsed vs %.3f", delayed.TestAcc, syncRun.TestAcc)
	}
}

func TestOffloadedForwardMatchesMonolithic(t *testing.T) {
	task := gnn.SyntheticCommunityTask(120, 3, 2, 0.3, 7)
	const hidden = 8
	l1w := tensor.Xavier(task.X.Cols, hidden, 1)
	l1b := tensor.New(1, hidden)
	l2w := tensor.Xavier(hidden, task.NumClasses, 2)
	l2b := tensor.New(1, task.NumClasses)
	// monolithic reference
	adj := gnn.NewNormAdj(task.G)
	h1 := tensor.MatMul(adj.Apply(task.X), l1w)
	h1.AddRowVector(l1b.Row(0))
	relu := h1.Apply(func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	ref := tensor.MatMul(adj.Apply(relu), l2w)
	ref.AddRowVector(l2b.Row(0))

	got, st := OffloadedGCNForward(task.G, task.X, l1w, l1b, l2w, l2b, 16)
	if tensor.MaxAbsDiff(got, ref) > 1e-4 {
		t.Fatalf("offloaded forward differs by %g", tensor.MaxAbsDiff(got, ref))
	}
	if st.DevicePeakFloats >= st.FullGraphFloats {
		t.Fatalf("device peak %d not below full residency %d", st.DevicePeakFloats, st.FullGraphFloats)
	}
	if st.HostTransferred == 0 {
		t.Fatal("no host transfers accounted")
	}
	// smaller chunks → smaller peak, same result
	got2, st2 := OffloadedGCNForward(task.G, task.X, l1w, l1b, l2w, l2b, 4)
	if tensor.MaxAbsDiff(got2, ref) > 1e-4 {
		t.Fatal("chunk-4 forward differs")
	}
	if st2.DevicePeakFloats >= st.DevicePeakFloats {
		t.Fatal("smaller chunk should lower device peak")
	}
}

func TestRelChange(t *testing.T) {
	a := weights{tensor.FromRows([][]float32{{1, 0}})}
	b := weights{tensor.FromRows([][]float32{{1, 0}})}
	if relChange(a, b) != 0 {
		t.Fatal("identical weights changed")
	}
	b[0].Set(0, 1, 1)
	if relChange(a, b) <= 0 {
		t.Fatal("change not detected")
	}
	if math.IsNaN(relChange(a, b)) {
		t.Fatal("NaN")
	}
}

func TestFeatureCompressionReducesTraffic(t *testing.T) {
	task := distTask()
	fp32, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 10, Seed: 14})
	int4, _ := TrainSync(task, TrainerConfig{Workers: 4, TimeBudget: 10, Seed: 14, FeatureBits: 4})
	if int4.Net.Bytes >= fp32.Net.Bytes {
		t.Fatalf("feature compression did not cut bytes: %d vs %d", int4.Net.Bytes, fp32.Net.Bytes)
	}
	if int4.TestAcc < fp32.TestAcc-0.1 {
		t.Fatalf("int4 features accuracy %.3f collapsed vs %.3f", int4.TestAcc, fp32.TestAcc)
	}
}

func TestQuantizeRowInPlace(t *testing.T) {
	row := []float32{1, -0.5, 0.25, 0}
	orig := append([]float32(nil), row...)
	quantizeRow(row, 8)
	for i := range row {
		d := row[i] - orig[i]
		if d < 0 {
			d = -d
		}
		if d > 0.01 {
			t.Fatalf("int8 row error %f at %d", d, i)
		}
	}
	// max element is exactly representable
	if row[0] != 1 {
		t.Fatalf("max element distorted: %f", row[0])
	}
	// all-zero row untouched
	z := []float32{0, 0}
	quantizeRow(z, 4)
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero row changed")
	}
}

func TestFeatureStoreLocalRowsExact(t *testing.T) {
	g := gen.Grid(4, 4)
	x := tensor.Xavier(16, 4, 3)
	part := partition.Range(g, 2)
	net := cluster.NewNetwork(2)
	fs := NewFeatureStore(x, part, net)
	fs.FeatureBits = 2
	got := fs.Fetch(0, []graph.V{0, 15}) // 0 local, 15 remote
	for j := 0; j < 4; j++ {
		if got.At(0, j) != x.At(0, j) {
			t.Fatal("local row must be exact")
		}
	}
	// remote row is quantised (likely different at 2 bits)
	same := true
	for j := 0; j < 4; j++ {
		if got.At(1, j) != x.At(15, j) {
			same = false
		}
	}
	if same {
		t.Log("remote row happened to be exactly representable at 2 bits (unlikely but legal)")
	}
	// wire size accounted with compression
	if net.Stats().Bytes != fs.RowBytes() {
		t.Fatalf("bytes %d != rowbytes %d", net.Stats().Bytes, fs.RowBytes())
	}
}

func TestQuantizerIdempotentProperty(t *testing.T) {
	// property: quantised values are fixed points of the quantiser
	f := func(seed int64, bitsRaw uint8) bool {
		bits := []int{2, 4, 8}[int(bitsRaw)%3]
		m := tensor.Xavier(4, 6, seed)
		q1 := NewQuantizer(bits, false)
		once := q1.Compress(m)
		q2 := NewQuantizer(bits, false)
		twice := q2.Compress(once)
		return tensor.MaxAbsDiff(once, twice) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
