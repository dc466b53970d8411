package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/obs"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/quegel"
	"graphsys/internal/storage"
	"graphsys/internal/tensor"
)

// layerCtx is what a workload's layers method works with: where to put the
// metrics, the probe fixtures for its idle layers, and what the runner saw
// while the workload's own jobs ran.
type layerCtx struct {
	tr     *tracer
	m      *metricSet
	probes *probes
	seed   int64

	traced   []jobResult     // results of the traced jobs (net stats, obs.Trace)
	untraced []jobResult     // the untraced jobs run between them
	open     *openResult     // serve_path's open-loop phase
	io       storage.IOStats // the workload's provider I/O over those jobs
}

func (lc *layerCtx) jobs() int { return len(lc.traced) + len(lc.untraced) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func wallsMs(results []jobResult) []float64 {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = ms(r.wall)
	}
	return xs
}

// samplesMs are the timings the end-to-end median is taken over: one per
// job, or one per burst where a job is made of bursts — a stall then spoils
// one sample of many, not the one job it fell into.
func samplesMs(results []jobResult) (xs []float64, perJob int) {
	perJob = 1
	for _, r := range results {
		if len(r.parts) == 0 {
			xs = append(xs, ms(r.wall))
			continue
		}
		perJob = len(r.parts)
		for _, p := range r.parts {
			xs = append(xs, ms(p))
		}
	}
	return xs, perJob
}

// timeMedian runs f n times and returns the median wall time in ms.
func timeMedian(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		f()
		xs[i] = ms(time.Since(t))
	}
	return median(xs)
}

func mallocsDuring(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// ---- gen, partition ----

func measureGen(m *metricSet, w workload) {
	d, arcs := w.genInfo()
	m.set("gen.build_s", d.Seconds())
	m.set("gen.arcs", float64(arcs))
}

func measurePartition(m *metricSet, f *gnnFixture) {
	m.set("partition.build_s", f.partTime.Seconds())
	m.set("partition.edge_cut_frac", float64(f.part.EdgeCut(f.task.G))/float64(f.task.G.NumEdges()))
}

// ---- pregel, cluster ----

// pregelObs is one observed engine run.
type pregelObs struct {
	wall       time.Duration
	supersteps int
	net        cluster.Stats
	trace      *obs.Trace
}

// pregelDrive is how a workload calls the pregel layer. run is its usual
// call with RunOptions.Trace on; setup is the cheapest call the same entry
// point allows (engine construction plus one trivial superstep); hi and lo
// are two calls that differ in superstep count, whose difference in
// allocations is the per-superstep steady state.
type pregelDrive struct {
	run, setup, hi, lo func() (pregelObs, error)
}

func pagerankDrive(g *graph.Graph, src storage.Provider) pregelDrive {
	call := func(iters int, trace bool) func() (pregelObs, error) {
		return func() (pregelObs, error) {
			cfg := pregel.Config{Workers: workers, Source: src}
			cfg.RunOptions.Trace = trace
			in := g
			if src != nil {
				in = nil
			}
			t := time.Now()
			_, res, err := pregel.PageRank(in, iters, cfg)
			if err != nil {
				return pregelObs{}, err
			}
			return pregelObs{wall: time.Since(t), supersteps: res.Supersteps, net: res.Net, trace: res.Trace}, nil
		}
	}
	return pregelDrive{run: call(prIters, true), setup: call(0, false), hi: call(2*prIters, false), lo: call(prIters, false)}
}

func quegelDrive(g *graph.Graph, burst []quegel.Query) pregelDrive {
	call := func(qs []quegel.Query, trace bool) func() (pregelObs, error) {
		return func() (pregelObs, error) {
			cfg := pregel.Config{Workers: workers}
			cfg.RunOptions.Trace = trace
			t := time.Now()
			_, st, err := quegel.AnswerBatched(g, qs, cfg)
			if err != nil {
				return pregelObs{}, err
			}
			o := pregelObs{wall: time.Since(t), supersteps: st.Supersteps, trace: st.Trace}
			if st.Trace != nil {
				o.net = cluster.Stats{Messages: st.Trace.Messages, LocalMessages: st.Trace.LocalMessages, Bytes: st.Trace.Bytes}
			}
			return o, nil
		}
	}
	// the cheapest batch: one query from the vertex of least degree, whose
	// frontier dies at once where that degree is 0 (R-MAT leaves many such)
	var low graph.V
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.V(v)) < g.Degree(low) {
			low = graph.V(v)
		}
	}
	trivial := []quegel.Query{{Src: low, Dst: low}}
	return pregelDrive{run: call(burst, true), setup: call(trivial, false), hi: call(burst, false), lo: call(trivial, false)}
}

// measurePregel fills the pregel.* metrics and the cluster counters. own are
// the observations of the workload's traced jobs when those jobs are pregel
// runs; otherwise the drive's run is called here.
func measurePregel(m *metricSet, d pregelDrive, own []pregelObs) error {
	runs := own
	for len(runs) < 3 {
		o, err := d.run()
		if err != nil {
			return fmt.Errorf("pregel drive: %w", err)
		}
		runs = append(runs, o)
	}
	walls := make([]float64, len(runs))
	for i, o := range runs {
		walls[i] = ms(o.wall)
	}
	last := runs[len(runs)-1]
	steps := float64(last.supersteps)
	m.set("pregel.run_ms", median(walls))
	m.set("pregel.superstep_ms", median(walls)/steps)
	m.set("pregel.supersteps", steps)
	if last.trace == nil {
		return fmt.Errorf("pregel drive: traced run carries no obs.Trace")
	}
	var busy float64
	for _, b := range last.trace.WorkerBusySec {
		busy += b
	}
	m.set("pregel.busy_frac", busy/(workers*last.wall.Seconds()))
	m.set("pregel.busy_imbalance", last.trace.Skew.BusyImbalance)

	total := float64(last.net.Messages + last.net.LocalMessages)
	m.set("cluster.msgs_per_superstep", total/steps)
	m.set("cluster.bytes_per_superstep", float64(last.net.Bytes)/steps)
	m.set("cluster.local_msg_frac", float64(last.net.LocalMessages)/total)

	var err error
	m.set("pregel.engine_setup_ms", timeMedian(5, func() {
		if _, e := d.setup(); e != nil {
			err = e
		}
	}))
	var hi, lo pregelObs
	hiAllocs := mallocsDuring(func() {
		var e error
		if hi, e = d.hi(); e != nil {
			err = e
		}
	})
	loAllocs := mallocsDuring(func() {
		var e error
		if lo, e = d.lo(); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("pregel drive: %w", err)
	}
	if hi.supersteps <= lo.supersteps {
		return fmt.Errorf("pregel drive: hi ran %d supersteps, lo %d", hi.supersteps, lo.supersteps)
	}
	m.set("pregel.allocs_per_superstep", (float64(hiAllocs)-float64(loAllocs))/float64(hi.supersteps-lo.supersteps))
	return nil
}

// measureClusterDrives replays one dense PageRank superstep's sends — every
// arc of g, combined per destination vertex — straight through the cluster
// layer, and times the gang hand-off on its own.
func measureClusterDrives(m *metricSet, g *graph.Graph) {
	type vmsg struct {
		to graph.V
		m  float64
	}
	n := g.NumVertices()
	owner := make([]int, n)
	local := make([]int32, n)
	owned := make([][]graph.V, workers)
	for v := 0; v < n; v++ {
		w := int(uint64(v) * 0x9e3779b97f4a7c15 % workers) // pregel's default placement
		owner[v] = w
		local[v] = int32(len(owned[w]))
		owned[w] = append(owned[w], graph.V(v))
	}
	c := cluster.New(workers)
	mb := cluster.NewMailboxes[vmsg](c.Network(), func(vmsg) int64 { return 8 })
	mb.SetDenseCombiner(
		func(dest int) int { return len(owned[dest]) },
		func(vm vmsg) int { return int(local[vm.to]) },
		func(a, b vmsg) vmsg { return vmsg{to: a.to, m: a.m + b.m} },
	)
	gang := c.NewGang()
	defer gang.Close()

	sendNs := make([]int64, workers)
	sendPhase := func(w int) {
		t := time.Now()
		ob := mb.Outbox(w)
		for _, v := range owned[w] {
			for _, u := range g.Neighbors(v) {
				ob.Send(owner[u], vmsg{to: u, m: 1})
			}
		}
		sendNs[w] = time.Since(t).Nanoseconds()
	}
	const reps = 5
	perMsg := make([]float64, reps)
	exchange := make([]float64, reps)
	for i := 0; i < reps; i++ {
		gang.Run(sendPhase)
		var total int64
		for _, ns := range sendNs {
			total += ns
		}
		perMsg[i] = float64(total) / float64(g.NumArcs())
		t := time.Now()
		mb.Exchange()
		exchange[i] = ms(time.Since(t))
	}
	m.set("cluster.send_ns_per_msg", median(perMsg))
	m.set("cluster.exchange_ms", median(exchange))

	noop := func(int) {}
	handoff := make([]float64, 10000)
	for i := range handoff {
		t := time.Now()
		gang.Run(noop)
		handoff[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	m.set("cluster.gang_handoff_us", median(handoff))
}

// ---- storage ----

// measureStorage fills storage.*: the counters from the provider's I/O over
// ops operations of the workload that uses it, the rest from stand-alone
// drives over fresh providers on the same file (so the workload's own cache
// and counters are left alone).
func measureStorage(m *metricSet, d *diskGraph, io storage.IOStats, ops int64) error {
	fileBytes := float64(d.info.FileBytes)
	m.set("storage.hit_ratio", io.HitRatio())
	m.set("storage.misses_per_op", float64(io.Misses)/float64(ops))
	m.set("storage.evictions_per_op", float64(io.Evictions)/float64(ops))
	m.set("storage.bytes_read_per_op", float64(io.BytesRead)/float64(ops))
	m.set("storage.read_amp", float64(io.BytesRead)/float64(ops)/fileBytes)
	m.set("storage.file_mb", fileBytes/1e6)
	m.set("storage.cache_mb", float64(d.prov.Footprint().CacheBytes)/1e6)
	m.set("storage.compression_ratio", d.info.CompressionRatio())
	m.set("storage.write_s", d.writeTime.Seconds())

	var err error
	m.set("storage.open_ms", timeMedian(5, func() {
		p, e := storage.OpenCached(d.info.Path, d.budget, workers, d.policy)
		if e != nil {
			err = e
			return
		}
		p.Close()
	}))
	if err != nil {
		return fmt.Errorf("storage drive: %w", err)
	}

	// hit path: one vertex of a block that stays resident
	p, err := storage.OpenCached(d.info.Path, d.budget, workers, d.policy)
	if err != nil {
		return fmt.Errorf("storage drive: %w", err)
	}
	defer p.Close()
	h := p.Handle(0)
	const hits = 200000
	t := time.Now()
	for i := 0; i <= hits; i++ { // the first call is the miss that loads the block
		if _, e := h.Neighbors(0); e != nil {
			return fmt.Errorf("storage drive: %w", e)
		}
	}
	m.set("storage.hit_ns", float64(time.Since(t).Nanoseconds())/hits)

	// scan path, under the workload's budget and policy
	m.set("storage.scan_ms", timeMedian(3, func() {
		if e := h.Scan(func(graph.V, []graph.V) error { return nil }); e != nil {
			err = e
		}
	}))
	if err != nil {
		return fmt.Errorf("storage drive: %w", err)
	}

	// miss path: the smallest cache OpenCached accepts, LRU, and a walk that
	// changes block on every access and cycles through all of them — no
	// block is still cached when its turn comes again
	small, err := storage.OpenCached(d.info.Path, d.info.ResidentBytes+d.info.MaxDecodedBytes, 1, storage.LRU)
	if err != nil {
		return fmt.Errorf("storage drive: %w", err)
	}
	defer small.Close()
	sh := small.Handle(0)
	n := d.info.NumVertices
	stride := n / d.info.NumBlocks
	if stride < 1 {
		stride = 1
	}
	t = time.Now()
	for i, v := 0, 0; i < 2000; i, v = i+1, (v+stride)%n {
		if _, e := sh.Neighbors(graph.V(v)); e != nil {
			return fmt.Errorf("storage drive: %w", e)
		}
	}
	el := time.Since(t)
	misses := sh.Stats().Misses
	if misses == 0 {
		return fmt.Errorf("storage drive: miss walk never missed")
	}
	m.set("storage.miss_us", float64(el.Nanoseconds())/1e3/float64(misses))
	return nil
}

// ---- gnn, tensor, nn, gnndist ----

// syncRun is what the sampled trainer reported for one TrainSync job, fullRun
// what the full-graph trainer reported for one TrainDistGNN job.
type syncRun struct {
	wallMs     float64
	remoteFrac float64
	gradBytes  int64
	netBytes   int64
}

type fullRun struct {
	wallMs   float64
	netBytes int64
}

// measureGNN replays the sampled trainer's minibatch step from the layers'
// public calls — as cmd/benchstorage's gnnBatch does — and times each part,
// then sets the parts against a whole TrainSync job. f must carry the
// partition and the provider. own is the workload's own TrainSync job and
// ownFull its own TrainDistGNN job, when it runs one; what it does not run
// is run here.
func measureGNN(lc *layerCtx, f *gnnFixture, own *syncRun, ownFull *fullRun) error {
	m, task := lc.m, f.task
	dims := []int{task.X.Cols, gnnHidden, task.NumClasses}
	n := task.G.NumVertices()

	// the whole the parts are set against: TrainSync jobs over the provider —
	// the workload's own, or one before and one after the replay so that a
	// machine that drifts meanwhile shifts whole and parts alike
	cfg := trainerConfig(lc.seed, f.disk.prov, false)
	var before jobResult
	if own == nil {
		if _, err := trainSyncJob(nil, task, cfg); err != nil { // warm the cache as the workload's warm-up does
			return fmt.Errorf("gnn replay: %w", err)
		}
		var err error
		if before, err = trainSyncJob(lc.tr, task, cfg); err != nil {
			return fmt.Errorf("gnn replay: %w", err)
		}
	}

	// what trainSync builds before its first round
	var fs *gnndist.FeatureStore
	var master *gnn.Model
	var trainSeeds []graph.V
	trainerSetupMs := ms(lc.tr.do("gnndist", "trainer_setup", func() {
		fs = gnndist.NewFeatureStore(task.X, partition.Hash(task.G, workers), cluster.NewNetwork(workers))
		trainSeeds = task.TrainSeeds()
		master = gnn.NewModel(task.G, gnn.GCN, dims, lc.seed)
	}))

	const batches = 8
	rng := rand.New(rand.NewSource(lc.seed + 3))
	var sampleMs, sampleMemMs, fetchMs, buildMs, fwdMs, bwdMs, batchMs, verts, arcs []float64
	for b := 0; b < batches; b++ {
		w := b % workers
		seen := map[graph.V]bool{}
		var seeds []graph.V
		for i := 0; i < gnnBatchSize; i++ {
			if s := trainSeeds[rng.Intn(len(trainSeeds))]; !seen[s] {
				seen[s] = true
				seeds = append(seeds, s)
			}
		}
		sampleSeed := rng.Int63()
		var sub *gnn.SampledSubgraph
		var err error
		total := lc.tr.do("gnndist", "batch", func() {
			sampleMs = append(sampleMs, ms(lc.tr.do("gnn", "sample", func() {
				sub, err = gnn.NeighborSampleSource(f.disk.prov.Handle(w), seeds, gnnFanouts, rand.New(rand.NewSource(sampleSeed)))
			})))
			if err != nil {
				return
			}
			var bx *tensor.Matrix
			fetchMs = append(fetchMs, ms(lc.tr.do("gnndist", "fetch", func() { bx = fs.Fetch(w, sub.NewToOld) })))
			labels := make([]int, sub.Graph.NumVertices())
			for i := range labels {
				labels[i] = -1
			}
			for _, loc := range sub.SeedLoc {
				labels[loc] = task.Labels[sub.NewToOld[loc]]
			}
			var bm *gnn.Model
			buildMs = append(buildMs, ms(lc.tr.do("gnn", "model_build", func() {
				bm = gnn.NewModel(sub.Graph, gnn.GCN, dims, lc.seed)
				for i, p := range bm.Params() {
					copy(p.W.Data, master.Params()[i].W.Data)
				}
			})))
			var logits, dLogits *tensor.Matrix
			fwdMs = append(fwdMs, ms(lc.tr.do("gnn", "forward", func() { logits = bm.Forward(bx) })))
			lc.tr.do("nn", "loss", func() { _, dLogits = nn.SoftmaxCrossEntropy(logits, labels) })
			bwdMs = append(bwdMs, ms(lc.tr.do("gnn", "backward", func() { bm.Backward(dLogits) })))
		})
		if err != nil {
			return fmt.Errorf("gnn replay: sample: %w", err)
		}
		batchMs = append(batchMs, ms(total))
		verts = append(verts, float64(sub.Graph.NumVertices()))
		arcs = append(arcs, float64(sub.Graph.NumArcs()))
		// the same draw from memory: identical subgraph, no storage wait
		sampleMemMs = append(sampleMemMs, ms(lc.tr.do("gnn", "sample_mem", func() {
			gnn.NeighborSample(task.G, seeds, gnnFanouts, rand.New(rand.NewSource(sampleSeed)))
		})))
	}
	m.set("gnn.sample_ms", median(sampleMs))
	m.set("gnn.sample_mem_ms", median(sampleMemMs))
	m.set("gnn.sampled_vertices_per_batch", median(verts))
	m.set("gnn.sampled_arcs_per_batch", median(arcs))
	m.set("gnn.model_build_ms", median(buildMs))
	m.set("gnn.forward_ms", median(fwdMs))
	m.set("gnn.backward_ms", median(bwdMs))
	m.set("gnndist.fetch_ms", median(fetchMs))

	opt := nn.NewAdam(0.02)
	adamMs := timeMedian(5, func() { lc.tr.do("nn", "adam", func() { opt.Step(master.Params()) }) })
	m.set("nn.adam_ms", adamMs)

	// the trainer's final full-graph evaluation
	var logits *tensor.Matrix
	evalMs := timeMedian(3, func() {
		lc.tr.do("gnndist", "eval", func() {
			eval := gnn.NewModel(task.G, gnn.GCN, dims, lc.seed)
			logits = eval.Forward(task.X)
			nn.SoftmaxCrossEntropy(logits, task.Labels)
			nn.Accuracy(logits, task.Labels, task.TestMask)
		})
	})
	m.set("gnndist.eval_ms", evalMs)
	m.set("nn.loss_ms", timeMedian(5, func() { nn.SoftmaxCrossEntropy(logits, task.Labels) }))

	// kernels at the full-graph shapes
	adj := gnn.NewNormAdj(task.G)
	h := tensor.Xavier(n, gnnHidden, lc.seed)
	out := tensor.New(n, gnnHidden)
	spmmMs := timeMedian(5, func() { lc.tr.do("gnn", "spmm", func() { adj.ApplyInto(h, out) }) })
	m.set("gnn.spmm_ms", spmmMs)
	// computed, not measured, traffic: per stored entry an index, a weight
	// and one row of h read; out written once
	nnz := float64(task.G.NumArcs() + int64(n))
	spmmBytes := nnz*(4+4+4*gnnHidden) + float64(n)*4*gnnHidden
	m.set("tensor.spmm_gbps", spmmBytes/(spmmMs/1e3)/1e9)

	w1 := tensor.Xavier(task.X.Cols, gnnHidden, lc.seed)
	matmul := func() { tensor.MatMulInto(task.X, w1, out) }
	parMs := timeMedian(5, func() { lc.tr.do("tensor", "matmul", matmul) })
	flops := 2 * float64(n) * float64(task.X.Cols) * gnnHidden
	m.set("tensor.matmul_gflops", flops/(parMs/1e3)/1e9)
	prev := tensor.Parallelism()
	tensor.SetParallelism(1)
	serialMs := timeMedian(5, matmul)
	tensor.SetParallelism(prev)
	m.set("tensor.parallel_speedup", serialMs/parMs)

	run := own
	if run == nil {
		after, err := trainSyncJob(lc.tr, task, cfg)
		if err != nil {
			return fmt.Errorf("gnn replay: %w", err)
		}
		run = &syncRun{
			wallMs: (ms(before.wall) + ms(after.wall)) / 2, remoteFrac: after.remoteFrac,
			gradBytes: after.gradBytes, netBytes: after.net.Bytes,
		}
	}
	parts := trainerSetupMs + gnnRounds*(workers*median(batchMs)+adamMs) + evalMs
	m.set("gnndist.round_ms", (run.wallMs-trainerSetupMs-evalMs)/gnnRounds)
	m.set("gnndist.step_cover_pct", 100*parts/run.wallMs)
	m.set("gnndist.remote_frac", run.remoteFrac)
	m.set("gnndist.grad_bytes_per_round", float64(run.gradBytes)/gnnRounds)

	// wire bytes per op of the trainer the workload itself runs; the sampled
	// trainer's where it runs neither
	netPerOp := float64(run.netBytes) / gnnRounds
	full := ownFull
	if full == nil {
		r := distGNNJob(lc.tr, f, lc.seed)
		full = &fullRun{wallMs: ms(r.wall), netBytes: r.net.Bytes}
	} else {
		netPerOp = float64(full.netBytes) / gnnEpochs
	}
	m.set("gnndist.epoch_ms", full.wallMs/gnnEpochs)
	m.set("gnndist.net_bytes_per_op", netPerOp)
	return nil
}

// ---- quegel, serve ----

// closedRun is what the closed-loop jobs of a serving fixture showed.
type closedRun struct {
	jobMs     []float64
	latencies []time.Duration
	bursts    int // per job
}

// measureServe fills quegel.* and serve.* from the closed-loop jobs, the
// open-loop phase and a direct AnswerBatched drive on the same graph.
func measureServe(m *metricSet, f *serveFixture, d pregelDrive, closed closedRun, open *openResult) error {
	var batchMs []float64
	var last pregelObs
	for i := 0; i < 9; i++ {
		o, err := d.hi()
		if err != nil {
			return fmt.Errorf("quegel drive: %w", err)
		}
		batchMs = append(batchMs, ms(o.wall))
		last = o
	}
	traced, err := d.run()
	if err != nil {
		return fmt.Errorf("quegel drive: %w", err)
	}
	m.set("quegel.batch_ms", median(batchMs))
	m.set("quegel.supersteps_per_batch", float64(last.supersteps))
	m.set("quegel.msgs_per_query", float64(traced.net.Messages+traced.net.LocalMessages)/serveBatch)

	jobMs := median(closed.jobMs)
	m.set("serve.closed_qps", float64(closed.bursts*serveBatch)/(jobMs/1e3))
	m.set("serve.overhead_ms", jobMs/float64(closed.bursts)-median(batchMs))
	lat := make([]float64, len(closed.latencies))
	for i, l := range closed.latencies {
		lat[i] = ms(l)
	}
	m.set("serve.engine_p50_ms", median(lat))

	m.set("serve.open_p50_ms", median(open.fromDueMs))
	m.set("serve.open_p95_ms", percentile(open.fromDueMs, 95))
	m.set("serve.open_max_ms", percentile(open.fromDueMs, 100))
	m.set("serve.open_rate", float64(len(open.queries))/open.elapsed.Seconds())
	m.set("serve.gen_late_p99_ms", percentile(open.lateMs, 99))

	f.eng.Drain()
	mt := f.eng.Metrics()
	_, runs := f.eng.Stats()
	m.set("serve.batch_size_mean", float64(mt.Completed)/float64(runs))
	m.set("serve.submitted", float64(mt.Submitted))
	m.set("serve.completed", float64(mt.Completed))
	m.set("serve.rejected", float64(mt.Rejected))
	m.set("serve.expired", float64(mt.Expired))
	m.set("serve.failed", float64(mt.Failed))
	return nil
}

// ---- probes: the same measurements on the small fixtures ----

func (lc *layerCtx) probePartition() error {
	f, err := lc.probes.gnnAll()
	if err != nil {
		return err
	}
	measurePartition(lc.m, f)
	return nil
}

func (lc *layerCtx) probePregel() error {
	f, err := lc.probes.prDisk()
	if err != nil {
		return err
	}
	measureClusterDrives(lc.m, f.g)
	return measurePregel(lc.m, pagerankDrive(f.g, nil), nil)
}

// probeStorage drives the probe provider with PageRank jobs (op = superstep).
func (lc *layerCtx) probeStorage() error {
	f, err := lc.probes.prDisk()
	if err != nil {
		return err
	}
	d := pagerankDrive(nil, f.disk.prov)
	if _, err := d.lo(); err != nil { // warm-up, as the workloads do
		return err
	}
	before := f.disk.prov.Stats()
	var steps int64
	for i := 0; i < 3; i++ {
		o, err := d.lo()
		if err != nil {
			return err
		}
		steps += int64(o.supersteps)
	}
	return measureStorage(lc.m, f.disk, f.disk.prov.Stats().Sub(before), steps)
}

func (lc *layerCtx) probeGNN() error {
	f, err := lc.probes.gnnAll()
	if err != nil {
		return err
	}
	return measureGNN(lc, f, nil, nil)
}

// probeServe starts the probe engine, runs a short closed and open loop on
// it and closes it again, so it is never live beside another engine's jobs.
func (lc *layerCtx) probeServe() error {
	f, err := lc.probes.serving()
	if err != nil {
		return err
	}
	defer f.close()
	w := &servePath{base: base{sz: tinySizes, seed: lc.seed}, fix: f, rng: rand.New(rand.NewSource(lc.seed + 1))}
	closed := closedRun{bursts: tinySizes.burstsPerJob}
	var first jobResult
	for i := 0; i < 3; i++ {
		r, err := w.job(nil)
		if err != nil {
			return err
		}
		closed.jobMs = append(closed.jobMs, ms(r.wall))
		closed.latencies = append(closed.latencies, r.latency...)
		if i == 0 {
			first = r
		}
	}
	open := w.openLoop(nil, tinySizes.openQueries)
	return measureServe(lc.m, f, quegelDrive(f.g, first.queries[:serveBatch]), closed, open)
}

// ---- which layers each workload owns ----

func (w *prWork) layers(lc *layerCtx) error {
	measureGen(lc.m, w)
	own := make([]pregelObs, len(lc.traced))
	for i, r := range lc.traced {
		own[i] = pregelObs{wall: r.wall, supersteps: int(r.steps), net: r.net, trace: r.trace}
	}
	var src storage.Provider
	if w.disk {
		src = w.fix.disk.prov
	}
	if err := measurePregel(lc.m, pagerankDrive(w.fix.g, src), own); err != nil {
		return err
	}
	measureClusterDrives(lc.m, w.fix.g)
	var err error
	if w.disk {
		err = measureStorage(lc.m, w.fix.disk, lc.io, int64(lc.jobs()*w.ops()))
	} else {
		err = lc.probeStorage()
	}
	if err != nil {
		return err
	}
	if err := lc.probePartition(); err != nil {
		return err
	}
	if err := lc.probeGNN(); err != nil {
		return err
	}
	return lc.probeServe()
}

func (w *gnnDisk) layers(lc *layerCtx) error {
	measureGen(lc.m, w)
	measurePartition(lc.m, w.fix)
	if err := lc.probePregel(); err != nil {
		return err
	}
	if err := measureStorage(lc.m, w.fix.disk, lc.io, int64(lc.jobs()*w.ops())); err != nil {
		return err
	}
	r := lc.untraced[0]
	own := &syncRun{wallMs: median(wallsMs(lc.untraced)), remoteFrac: r.remoteFrac, gradBytes: r.gradBytes, netBytes: r.net.Bytes}
	if err := measureGNN(lc, w.fix, own, nil); err != nil {
		return err
	}
	return lc.probeServe()
}

func (w *gnnFull) layers(lc *layerCtx) error {
	measureGen(lc.m, w)
	measurePartition(lc.m, w.fix)
	if err := lc.probePregel(); err != nil {
		return err
	}
	if err := lc.probeStorage(); err != nil {
		return err
	}
	own := &fullRun{wallMs: median(wallsMs(lc.untraced)), netBytes: lc.untraced[0].net.Bytes}
	if err := measureGNN(lc, w.fix, nil, own); err != nil {
		return err
	}
	return lc.probeServe()
}

func (w *servePath) layers(lc *layerCtx) error {
	measureGen(lc.m, w)
	if err := lc.probePartition(); err != nil {
		return err
	}
	drive := quegelDrive(w.fix.g, lc.untraced[0].queries[:serveBatch])
	measureClusterDrives(lc.m, w.fix.g)
	if err := measurePregel(lc.m, drive, nil); err != nil {
		return err
	}
	if err := lc.probeStorage(); err != nil {
		return err
	}
	if err := lc.probeGNN(); err != nil {
		return err
	}
	closed := closedRun{jobMs: wallsMs(lc.untraced), bursts: w.sz.burstsPerJob}
	for _, r := range lc.untraced {
		closed.latencies = append(closed.latencies, r.latency...)
	}
	return measureServe(lc.m, w.fix, drive, closed, lc.open)
}
