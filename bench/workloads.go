package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/obs"
	"graphsys/internal/pregel"
	"graphsys/internal/quegel"
	"graphsys/internal/serve"
	"graphsys/internal/storage"
)

// jobResult is what one job leaves behind for verification, which runs after
// the timed phase and outside every timer.
type jobResult struct {
	wall   time.Duration   // the engine call alone; output checks are outside it
	parts  []time.Duration // serve_path: wall time of each burst of the job
	digest uint64          // bits of the output: rank vector, loss, accuracy
	steps  int64           // supersteps, gradient steps or refreshes the engine reports
	bad    string          // the job's own output check failed (non-finite rank, low accuracy)

	// what the engine metered; trace is set in the traced pass only
	net        cluster.Stats
	trace      *obs.Trace
	remoteFrac float64 // TrainSync only
	gradBytes  int64   // TrainSync only

	// serve_path: the queries of the job and what the engine answered, and
	// after check how many of them were answered wrongly
	queries  []quegel.Query
	dists    []int32
	errs     []error
	latency  []time.Duration // Ticket.Latency per query
	asked    int64
	wrong    int64
	wrongWhy []string
}

// forget drops the per-query records once check has counted them, so the
// harness's own bookkeeping stays out of heap_live_mb.
func (r *jobResult) forget() {
	r.queries, r.dists, r.errs, r.latency = nil, nil, nil, nil
}

// workload is one entry of BENCHMARK.json's workloads list. The runner calls
// setup (then one untimed warm-up job), then job repeatedly inside the timer,
// then verify outside it. A nil tracer means the untraced end-to-end pass.
type workload interface {
	name() string
	why() string
	ops() int // ops per job
	setup(tr *tracer, rep int) error
	job(tr *tracer) (jobResult, error)
	// check inspects one job's output right after the job, outside its timer
	// and its allocation meter.
	check(r *jobResult)
	// verify counts the ops attempted and those whose output is wrong: a job
	// that fails verification fails all its ops; in serve_path an op is a query.
	verify(results []jobResult) (attempted, failed int64, notes []string)
	ioStats() storage.IOStats // cumulative I/O of the workload's provider, if it has one
	genInfo() (time.Duration, int64)
	layers(lc *layerCtx) error
	close() error
}

// openLooper is the second measured phase only serve_path has.
type openLooper interface {
	openLoop(tr *tracer, n int) *openResult
}

// base carries what every workload needs from the command line.
type base struct {
	sz   sizes
	seed int64
	dir  string // scratch directory for block files, inside -out
}

func (b base) ioStats() storage.IOStats { return storage.IOStats{} }
func (b base) check(*jobResult)         {}

func (b base) path(name string, rep int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d.gsb", name, rep))
}

func newWorkloads(b base) []workload {
	return []workload{
		&prWork{base: b},
		&prWork{base: b, disk: true},
		&gnnDisk{base: b},
		&gnnFull{base: b},
		&servePath{base: b},
	}
}

func floatsDigest(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sameDigest fails every job whose own check failed or whose digest differs
// from want; a failed job fails all its ops.
func sameDigest(results []jobResult, ops int, want uint64, what string) (attempted, failed int64, notes []string) {
	for i, r := range results {
		attempted += int64(ops)
		switch {
		case r.bad != "":
			failed += int64(ops)
			notes = append(notes, fmt.Sprintf("job %d: %s", i, r.bad))
		case r.digest != want:
			failed += int64(ops)
			notes = append(notes, fmt.Sprintf("job %d: %s %#x, want %#x", i, what, r.digest, want))
		}
	}
	return attempted, failed, notes
}

// allFailed is verify's answer when the reference run itself failed.
func allFailed(results []jobResult, ops int, err error) (attempted, failed int64, notes []string) {
	n := int64(len(results) * ops)
	return n, n, []string{"in-memory reference run: " + err.Error()}
}

// ---- pr_mem / pr_disk ----

// prWork runs pregel.PageRank on the R-MAT graph: in memory, or with the
// adjacency served by the block cache (disk).
type prWork struct {
	base
	disk bool
	fix  *prFixture
	arcs int64 // of the graph, once pr_disk has let go of it
}

func (w *prWork) name() string {
	if w.disk {
		return "pr_disk"
	}
	return "pr_mem"
}

func (w *prWork) why() string {
	if w.disk {
		return "same PageRank with adjacency from the block cache (cyclic sweep, MRU, 15% budget): storage's hit path and sequential miss path"
	}
	return "in-memory PageRank: pregel + cluster do all the work; bypass for every storage, GNN and serving change"
}

func (w *prWork) ops() int { return prIters + 1 }

func (w *prWork) setup(tr *tracer, rep int) (err error) {
	w.fix, err = buildPR(tr, w.sz, w.seed, w.path("pr", rep), w.disk)
	if err == nil && w.disk && tr == nil {
		// out of core for real: the CSR goes once the block file is written,
		// so heap_live_mb shows the resident index plus the cache budget
		w.arcs, w.fix.g = w.fix.g.NumArcs(), nil
	}
	return err
}

func (w *prWork) close() error {
	err := w.fix.close()
	w.fix = nil
	return err
}

func (w *prWork) ioStats() storage.IOStats {
	if w.fix.disk == nil {
		return storage.IOStats{}
	}
	return w.fix.disk.prov.Stats()
}

func (w *prWork) genInfo() (time.Duration, int64) {
	if w.fix.g != nil {
		return w.fix.genTime, w.fix.g.NumArcs()
	}
	return w.fix.genTime, w.arcs
}

// pageRank is the one call both PageRank workloads time.
func (w *prWork) pageRank(iters int, trace bool) ([]float64, *pregel.Result[float64], error) {
	cfg := pregel.Config{Workers: workers}
	cfg.RunOptions.Trace = trace
	if w.fix.disk != nil {
		cfg.Source = w.fix.disk.prov
		return pregel.PageRank(nil, iters, cfg)
	}
	return pregel.PageRank(w.fix.g, iters, cfg)
}

func (w *prWork) job(tr *tracer) (jobResult, error) {
	var ranks []float64
	var res *pregel.Result[float64]
	var err error
	wall := tr.do("pregel", "pagerank", func() { ranks, res, err = w.pageRank(prIters, tr != nil) })
	if err != nil {
		return jobResult{}, err
	}
	r := jobResult{wall: wall, digest: floatsDigest(ranks), steps: int64(res.Supersteps), net: res.Net, trace: res.Trace}
	for v, x := range ranks {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			r.bad = fmt.Sprintf("rank[%d] = %v", v, x)
			break
		}
	}
	if r.bad == "" && res.Supersteps != prIters+1 {
		r.bad = fmt.Sprintf("%d supersteps, want %d", res.Supersteps, prIters+1)
	}
	return r, nil
}

// verify: every job's rank vector has the same bits; for pr_disk those bits
// are the ones an in-memory run of the same configuration produces.
func (w *prWork) verify(results []jobResult) (int64, int64, []string) {
	want := results[0].digest
	if w.disk {
		g := w.fix.g
		if g == nil {
			g = gen.RMAT(w.sz.prScale, prDegree, w.seed)
		}
		ranks, _, err := pregel.PageRank(g, prIters, pregel.Config{Workers: workers})
		if err != nil {
			return allFailed(results, w.ops(), err)
		}
		want = floatsDigest(ranks)
	}
	return sameDigest(results, w.ops(), want, "rank digest")
}

// ---- gnn_disk ----

// gnnDisk runs sampled-minibatch training with sampling reads served by a
// block cache far smaller than the working set.
type gnnDisk struct {
	base
	fix *gnnFixture
}

func (w *gnnDisk) name() string { return "gnn_disk" }
func (w *gnnDisk) why() string {
	return "sampled GNN training over a block cache at 5% of the CSR (random access, LRU): block misses dominate the round"
}
func (w *gnnDisk) ops() int { return gnnRounds }

func (w *gnnDisk) setup(tr *tracer, rep int) (err error) {
	// the traced pass also wants the Metis partition, for the partition
	// layer's metrics; the end-to-end pass does not pay for it
	w.fix, err = buildGNN(tr, w.sz, w.seed, w.path("gnn", rep), tr != nil, true)
	return err
}

func (w *gnnDisk) close() error {
	err := w.fix.close()
	w.fix = nil
	return err
}

func (w *gnnDisk) ioStats() storage.IOStats        { return w.fix.disk.prov.Stats() }
func (w *gnnDisk) genInfo() (time.Duration, int64) { return w.fix.genTime, w.fix.task.G.NumArcs() }

// trainerConfig is the sampled-training configuration, with or without the
// out-of-core source.
func trainerConfig(seed int64, src storage.Provider, trace bool) gnndist.TrainerConfig {
	cfg := gnndist.TrainerConfig{
		Workers: workers, Kind: gnn.GCN, Hidden: gnnHidden, BatchSize: gnnBatchSize,
		Fanouts: gnnFanouts, TimeBudget: gnnRounds, Seed: seed, Source: src,
	}
	cfg.RunOptions.Trace = trace
	return cfg
}

func trainSyncJob(tr *tracer, task *gnn.Task, cfg gnndist.TrainerConfig) (jobResult, error) {
	var res gnndist.DistResult
	var err error
	wall := tr.do("gnndist", "train_sync", func() { res, err = gnndist.TrainSync(task, cfg) })
	if err != nil {
		return jobResult{}, err
	}
	r := jobResult{
		wall: wall, digest: math.Float64bits(res.Loss), steps: res.Steps, net: res.Net, trace: res.Trace,
		remoteFrac: res.RemoteFrac, gradBytes: res.GradBytes,
	}
	if res.Steps != gnnRounds {
		r.bad = fmt.Sprintf("%d gradient steps, want %d", res.Steps, gnnRounds)
	}
	return r, nil
}

func (w *gnnDisk) job(tr *tracer) (jobResult, error) {
	return trainSyncJob(tr, w.fix.task, trainerConfig(w.seed, w.fix.disk.prov, tr != nil))
}

// verify: the loss has the bits an in-memory TrainSync of the same
// configuration produces.
func (w *gnnDisk) verify(results []jobResult) (int64, int64, []string) {
	ref, err := gnndist.TrainSync(w.fix.task, trainerConfig(w.seed, nil, false))
	if err != nil {
		return allFailed(results, w.ops(), err)
	}
	return sameDigest(results, w.ops(), math.Float64bits(ref.Loss), "loss bits")
}

// ---- gnn_full ----

// gnnFull runs full-graph delayed-update training on a Metis partition.
type gnnFull struct {
	base
	fix *gnnFixture
}

func (w *gnnFull) name() string { return "gnn_full" }
func (w *gnnFull) why() string {
	return "full-graph GCN epochs: tensor/nn/gnn kernels do all the work, no sampling, storage or pregel; bypass for everything else"
}
func (w *gnnFull) ops() int { return gnnEpochs }

func (w *gnnFull) setup(tr *tracer, rep int) (err error) {
	// the traced pass also wants a provider, to measure sampling against
	w.fix, err = buildGNN(tr, w.sz, w.seed, w.path("gnn", rep), true, tr != nil)
	return err
}

func (w *gnnFull) close() error {
	err := w.fix.close()
	w.fix = nil
	return err
}

func (w *gnnFull) genInfo() (time.Duration, int64) { return w.fix.genTime, w.fix.task.G.NumArcs() }

func distGNNJob(tr *tracer, f *gnnFixture, seed int64) jobResult {
	var res gnndist.DistGNNResult
	wall := tr.do("gnndist", "train_distgnn", func() {
		res = gnndist.TrainDistGNN(f.task, gnndist.DistGNNConfig{
			Workers: workers, Part: f.part, Hidden: gnnHidden, Epochs: gnnEpochs, Seed: seed,
		})
	})
	r := jobResult{wall: wall, digest: math.Float64bits(res.TestAcc), steps: res.Refreshes, net: res.Net}
	switch {
	case res.Refreshes != gnnEpochs:
		r.bad = fmt.Sprintf("%d refreshes, want %d", res.Refreshes, gnnEpochs)
	case !(res.TestAcc > 0.5):
		r.bad = fmt.Sprintf("test accuracy %v, want above 0.5", res.TestAcc)
	}
	return r
}

func (w *gnnFull) job(tr *tracer) (jobResult, error) {
	return distGNNJob(tr, w.fix, w.seed), nil
}

// verify: training is deterministic, so every job reports the same accuracy.
func (w *gnnFull) verify(results []jobResult) (int64, int64, []string) {
	return sameDigest(results, w.ops(), results[0].digest, "accuracy bits")
}

// ---- serve_path ----

// servePath drives the live quegel engine: lock-step bursts for throughput
// (the jobs), then an open loop at a fixed rate for latency.
type servePath struct {
	base
	fix *serveFixture
	rng *rand.Rand // query endpoints; reseeded at each set-up
}

func (w *servePath) name() string { return "serve_path" }
func (w *servePath) why() string {
	return "live batched path queries: serve.Batcher over pregel's map-combiner path, one engine construction per batch and ~10 ms supersteps"
}
func (w *servePath) ops() int { return w.sz.burstsPerJob * serveBatch }

func (w *servePath) setup(tr *tracer, rep int) (err error) {
	w.rng = rand.New(rand.NewSource(w.seed + 1))
	w.fix, err = buildServe(tr, w.sz, w.seed)
	return err
}

func (w *servePath) close() error { return w.fix.close() }

func (w *servePath) genInfo() (time.Duration, int64) { return w.fix.genTime, w.fix.g.NumArcs() }

func randomQuery(rng *rand.Rand, n int) quegel.Query {
	return quegel.Query{Src: graph.V(rng.Intn(n)), Dst: graph.V(rng.Intn(n))}
}

// burst submits one window of queries and waits for all of them: the closed
// loop's unit. A rejected query is recorded as that query's error.
func burst(tr *tracer, eng *quegel.Engine, qs []quegel.Query, r *jobResult) {
	wall := tr.do("serve", "burst", func() {
		tickets := make([]*serve.Ticket[quegel.Answer], len(qs))
		for i, q := range qs {
			tk, err := eng.Submit(serve.Request[quegel.Query]{Query: q})
			if err != nil {
				tk = serve.CompletedTicket(quegel.Answer{}, err)
			}
			tickets[i] = tk
		}
		for i, tk := range tickets {
			ans, err := tk.Wait()
			r.queries = append(r.queries, qs[i])
			r.dists = append(r.dists, ans.Dist)
			r.errs = append(r.errs, err)
			r.latency = append(r.latency, tk.Latency())
		}
	})
	r.parts = append(r.parts, wall)
}

func (w *servePath) job(tr *tracer) (jobResult, error) {
	var r jobResult
	n := w.fix.g.NumVertices()
	qs := make([]quegel.Query, serveBatch)
	start := time.Now()
	for b := 0; b < w.sz.burstsPerJob; b++ {
		for i := range qs {
			qs[i] = randomQuery(w.rng, n)
		}
		burst(tr, w.fix.eng, qs, &r)
	}
	r.wall = time.Since(start)
	return r, nil
}

// openResult is one open-loop phase: every query with the instant it was due,
// how late the generator submitted it, and the engine's answer.
type openResult struct {
	jobResult
	fromDueMs []float64 // completion − due instant
	lateMs    []float64 // submission − due instant
	elapsed   time.Duration
}

// add folds another slice of the open loop into o, keeping the counts check
// made and dropping the per-query records.
func (o *openResult) add(part *openResult) {
	o.asked += part.asked
	o.wrong += part.wrong
	o.wrongWhy = append(o.wrongWhy, part.wrongWhy...)
	o.fromDueMs = append(o.fromDueMs, part.fromDueMs...)
	o.lateMs = append(o.lateMs, part.lateMs...)
	o.elapsed += part.elapsed
}

// openLoop submits n queries at exponentially spaced due times (rate
// serveOpenRate, independent of service progress) from this one goroutine,
// then collects them. Latency counts from the due instant, so a stall of the
// generator or the engine is charged to the queries it delayed.
func (w *servePath) openLoop(tr *tracer, n int) *openResult {
	f, rng := w.fix, w.rng
	nv := f.g.NumVertices()
	due := make([]time.Duration, n)
	qs := make([]quegel.Query, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / serveOpenRate
		due[i] = time.Duration(t * float64(time.Second))
		qs[i] = randomQuery(rng, nv)
	}
	res := &openResult{}
	tickets := make([]*serve.Ticket[quegel.Answer], n)
	tr.do("serve", "open_loop", func() {
		start := time.Now()
		for i := range qs {
			if wait := due[i] - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			late := time.Since(start) - due[i]
			tk, err := f.eng.Submit(serve.Request[quegel.Query]{Query: qs[i]})
			if err != nil {
				tk = serve.CompletedTicket(quegel.Answer{}, err)
			}
			tickets[i] = tk
			res.lateMs = append(res.lateMs, ms(late))
		}
		for i, tk := range tickets {
			ans, err := tk.Wait()
			res.queries = append(res.queries, qs[i])
			res.dists = append(res.dists, ans.Dist)
			res.errs = append(res.errs, err)
			res.latency = append(res.latency, tk.Latency())
			res.fromDueMs = append(res.fromDueMs, res.lateMs[i]+ms(tk.Latency()))
		}
		res.elapsed = time.Since(start)
	})
	return res
}

// bfsDist answers a hop-distance query with a plain queue BFS over the CSR:
// an oracle that shares no code with pregel or quegel.
func bfsDist(g *graph.Graph, q quegel.Query) int32 {
	d := make([]int32, g.NumVertices())
	for i := range d {
		d[i] = -1
	}
	d[q.Src] = 0
	queue := []graph.V{q.Src}
	for len(queue) > 0 && d[q.Dst] < 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if d[v] < 0 {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return d[q.Dst]
}

// check: every query of the job completed without error and its distance
// equals the oracle's.
func (w *servePath) check(r *jobResult) {
	for i, q := range r.queries {
		var why string
		if r.errs[i] != nil {
			why = r.errs[i].Error()
		} else if want := bfsDist(w.fix.g, q); r.dists[i] != want {
			why = fmt.Sprintf("distance %d, oracle says %d", r.dists[i], want)
		}
		if why != "" {
			r.wrong++
			if len(r.wrongWhy) < 3 {
				r.wrongWhy = append(r.wrongWhy, fmt.Sprintf("query %d→%d: %s", q.Src, q.Dst, why))
			}
		}
	}
	r.asked = int64(len(r.queries))
}

// verify: no query was answered wrongly; the engine's counters show nothing
// rejected, expired or failed and everything submitted completed.
func (w *servePath) verify(results []jobResult) (attempted, failed int64, notes []string) {
	for j, r := range results {
		attempted += r.asked
		failed += r.wrong
		for _, why := range r.wrongWhy {
			notes = append(notes, fmt.Sprintf("job %d %s", j, why))
		}
	}
	w.fix.eng.Drain()
	if m := w.fix.eng.Metrics(); m.Completed != m.Submitted || m.Rejected+m.Expired+m.Failed != 0 {
		failed++
		notes = append(notes, fmt.Sprintf("engine counters: %+v", m))
	}
	return attempted, failed, notes
}
