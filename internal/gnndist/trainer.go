package gnndist

import (
	"fmt"
	"math/rand"

	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/obs"
	"graphsys/internal/partition"
	"graphsys/internal/storage"
	"graphsys/internal/tensor"
)

// TrainerConfig configures distributed data-parallel GNN training.
type TrainerConfig struct {
	Workers   int
	Part      *partition.Partition // vertex placement; nil = hash
	CacheSize int                  // >0 enables BGL-style feature cache

	// Source, when set, serves all neighbor-sampling adjacency reads from
	// the out-of-core storage layer: worker w samples through Source's
	// per-worker handle w instead of task.G's in-memory CSR. Sampling is
	// byte-identical between the two paths, so the whole training trajectory
	// is too. The caller keeps ownership (the trainer does not Close it).
	// When nil, storage.ProviderFor picks the provider: a spill of task.G
	// under the process-global storage policy when that selects disk, else
	// task.G in memory.
	Source storage.Provider

	Kind      gnn.ModelKind
	Hidden    int
	BatchSize int
	Fanouts   []int
	LR        float64
	Seed      int64

	// TimeBudget is the simulated wall-clock the run may consume; a worker
	// step costs WorkerSpeed[w] time units (1.0 default). This is what makes
	// time-to-accuracy comparable between synchronous training (each round
	// costs max over workers — stragglers gate everyone) and asynchronous
	// bounded-staleness training (workers proceed at their own pace).
	TimeBudget  float64
	WorkerSpeed []float64

	// Staleness bounds the version lag in TrainBoundedStale.
	Staleness int
	// SancusTau is the relative weight-change threshold below which a
	// broadcast round is skipped in TrainSancus (default 1e-4).
	SancusTau float64

	// QuantBits/QuantCompensate compress gradient pushes (32 = off).
	QuantBits       int
	QuantCompensate bool
	// FeatureBits compresses remote feature fetches (F²CGT; 0/32 = off).
	FeatureBits int

	// CheckpointEvery snapshots the full training state (weights, optimiser
	// moments, per-worker RNG positions, error-feedback residuals) every that
	// many rounds; an injected crash (RunOptions.Faults.CrashAtRound) rolls
	// back to the latest snapshot and replays, converging to the exact
	// fault-free result. 0 keeps only the implicit round-0 snapshot.
	CheckpointEvery int

	// RunOptions is the cross-cutting runtime configuration shared by every
	// engine: Trace (observability opt-in, with per-worker SIMULATED busy
	// time), Topology (link costs), Faults (crash/straggler/lossy-link
	// injection).
	cluster.RunOptions
}

func (c *TrainerConfig) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{8, 8}
	}
	if c.LR == 0 {
		c.LR = 0.02
	}
	if c.TimeBudget == 0 {
		c.TimeBudget = 60
	}
	if c.WorkerSpeed == nil {
		c.WorkerSpeed = make([]float64, c.Workers)
		for i := range c.WorkerSpeed {
			c.WorkerSpeed[i] = 1
		}
	}
	if c.QuantBits == 0 {
		c.QuantBits = 32
	}
	if c.SancusTau == 0 {
		c.SancusTau = 1e-4
	}
}

// validate rejects inconsistent configurations with a clear error from the
// exported entry points (TrainSync etc.) before any work starts.
func (c *TrainerConfig) validate() error {
	if len(c.WorkerSpeed) != c.Workers {
		return fmt.Errorf("gnndist: TrainerConfig.WorkerSpeed has %d entries for %d workers", len(c.WorkerSpeed), c.Workers)
	}
	for w, s := range c.WorkerSpeed {
		if s <= 0 {
			return fmt.Errorf("gnndist: TrainerConfig.WorkerSpeed[%d] = %g, want > 0", w, s)
		}
	}
	if c.QuantBits < 0 || c.QuantBits > 32 {
		return fmt.Errorf("gnndist: TrainerConfig.QuantBits = %d, want 0..32", c.QuantBits)
	}
	if c.FeatureBits < 0 || c.FeatureBits > 32 {
		return fmt.Errorf("gnndist: TrainerConfig.FeatureBits = %d, want 0..32", c.FeatureBits)
	}
	if c.Staleness < 0 {
		return fmt.Errorf("gnndist: TrainerConfig.Staleness = %d, want >= 0", c.Staleness)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("gnndist: TrainerConfig.CheckpointEvery = %d, want >= 0", c.CheckpointEvery)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("gnndist: TrainerConfig.Parallelism = %d, want >= 0", c.Parallelism)
	}
	return nil
}

// DistResult reports a distributed training run.
type DistResult struct {
	TestAcc    float64
	Loss       float64 // final full-graph cross-entropy over labeled vertices
	Steps      int64   // total gradient steps applied
	SimTime    float64
	SyncRounds int64
	Skipped    int64 // Sancus: broadcasts skipped
	Net        cluster.Stats
	RemoteFrac float64 // fraction of feature fetches that were remote
	GradBytes  int64   // gradient payload actually sent (post-quantisation)

	// Hits, Misses and Local count feature-row fetches served by the
	// hot-vertex cache, by a remote owner and from the worker's own rows.
	Hits, Misses, Local int64

	// Trace is the observability snapshot of the run (nil unless
	// TrainerConfig.Trace was set). Worker busy time is simulated time.
	Trace *obs.Trace
}

// dist holds the shared machinery of all training modes.
type dist struct {
	cfg   TrainerConfig
	task  *gnn.Task
	clst  *cluster.Cluster
	fi    *cluster.FaultInjector
	fs    *FeatureStore
	dims  []int
	shard [][]graph.V // train seeds per worker
	srcs  []*countedSource
	rngs  []*rand.Rand
	quant []map[int]*Quantizer // per worker, per parameter index

	prov     storage.Provider // sampling adjacency: Source, a policy spill, or task.G in memory
	ownsProv bool             // prov is a spill the trainer closes
	meter    *storage.Meter   // per-round I/O of traced disk-backed runs; nil otherwise
	srcErr   error            // first storage failure, surfaced at the round barrier
}

func newDist(task *gnn.Task, cfg TrainerConfig) (*dist, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Part == nil {
		cfg.Part = partition.Hash(task.G, cfg.Workers)
	}
	d := &dist{cfg: cfg, task: task, clst: cluster.New(cfg.Workers)}
	d.fi = cfg.RunOptions.Apply(d.clst)
	d.fs = NewFeatureStore(task.X, cfg.Part, d.clst.Network())
	d.fs.FeatureBits = cfg.FeatureBits
	if cfg.CacheSize > 0 {
		d.fs.EnableCache(task.G, cfg.CacheSize, cfg.Workers)
	}
	d.dims = []int{task.X.Cols, cfg.Hidden, task.NumClasses}
	// shard train seeds by the partition (each worker trains its own seeds,
	// the DistDGL/ByteGNN arrangement)
	d.shard = make([][]graph.V, cfg.Workers)
	for _, s := range task.TrainSeeds() {
		w := cfg.Part.Assign[s]
		d.shard[w] = append(d.shard[w], s)
	}
	d.srcs = make([]*countedSource, cfg.Workers)
	d.rngs = make([]*rand.Rand, cfg.Workers)
	d.quant = make([]map[int]*Quantizer, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		d.srcs[w] = newCountedSource(cfg.Seed + int64(w)*7919)
		d.rngs[w] = rand.New(d.srcs[w])
		d.quant[w] = map[int]*Quantizer{}
	}
	prov, owns, err := storage.ProviderFor(task.G, cfg.Source, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("gnndist: %w", err)
	}
	d.prov, d.ownsProv = prov, owns
	d.meter = storage.NewMeter(prov, cfg.Trace)
	return d, nil
}

// close releases a provider the trainer owns (a policy spill and its block
// file). Best-effort: by the time it runs the spill has been fully read.
func (d *dist) close() {
	if d.ownsProv {
		_ = d.prov.Close()
	}
}

// speed is the simulated cost of one step on worker w, including any injected
// straggler slowdown.
func (d *dist) speed(w int) float64 {
	return d.cfg.WorkerSpeed[w] * d.fi.SlowFactor(w)
}

// weights is a parameter snapshot.
type weights []*tensor.Matrix

func newMaster(d *dist) (*gnn.Model, weights) {
	m := gnn.NewModel(d.task.G, d.cfg.Kind, d.dims, d.cfg.Seed)
	var w weights
	for _, p := range m.Params() {
		w = append(w, p.W)
	}
	return m, w
}

func cloneWeights(w weights) weights {
	out := make(weights, len(w))
	for i, m := range w {
		out[i] = m.Clone()
	}
	return out
}

func copyWeights(dst, src weights) {
	for i := range dst {
		copy(dst[i].Data, src[i].Data)
	}
}

func weightBytes(w weights) int64 {
	var b int64
	for _, m := range w {
		b += int64(len(m.Data)) * 4
	}
	return b
}

func relChange(a, b weights) float64 {
	var diff, norm float64
	for i := range a {
		for j := range a[i].Data {
			d := float64(a[i].Data[j] - b[i].Data[j])
			diff += d * d
			n := float64(a[i].Data[j])
			norm += n * n
		}
	}
	if norm == 0 {
		return 1
	}
	return diff / norm
}

// gradStep computes one minibatch gradient for worker w using the given
// weight snapshot, with feature fetches metered. Returns the (possibly
// quantised) gradients and the bytes pushed.
func (d *dist) gradStep(w int, snapshot weights) (weights, int64) {
	seeds := d.shard[w]
	if len(seeds) == 0 {
		return nil, 0
	}
	rng := d.rngs[w]
	batch := make([]graph.V, 0, d.cfg.BatchSize)
	for i := 0; i < d.cfg.BatchSize; i++ {
		batch = append(batch, seeds[rng.Intn(len(seeds))])
	}
	// dedup seeds (NeighborSample assumes distinct seeds)
	seen := map[graph.V]bool{}
	uniq := batch[:0]
	for _, s := range batch {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sub, err := gnn.NeighborSampleSource(d.prov.Handle(w), uniq, d.cfg.Fanouts, rng)
	if err != nil {
		if d.srcErr == nil {
			d.srcErr = err
		}
		return nil, 0
	}
	bx := d.fs.Fetch(w, sub.NewToOld)
	blabels := make([]int, sub.Graph.NumVertices())
	for i := range blabels {
		blabels[i] = -1
	}
	for _, loc := range sub.SeedLoc {
		blabels[loc] = d.task.Labels[sub.NewToOld[loc]]
	}
	bm := gnn.NewModel(sub.Graph, d.cfg.Kind, d.dims, d.cfg.Seed)
	params := bm.Params()
	for i, p := range params {
		copy(p.W.Data, snapshot[i].Data)
	}
	logits := bm.Forward(bx)
	_, dLogits := nn.SoftmaxCrossEntropy(logits, blabels)
	bm.Backward(dLogits)
	var grads weights
	for _, p := range params {
		grads = append(grads, p.Grad)
	}
	// quantise the push (EC-Graph/EXACT-style compression); error-feedback
	// residuals are per (worker, parameter) since shapes differ
	var sent int64
	for i := range grads {
		q, ok := d.quant[w][i]
		if !ok {
			q = NewQuantizer(d.cfg.QuantBits, d.cfg.QuantCompensate)
			d.quant[w][i] = q
		}
		grads[i] = q.Compress(grads[i])
		sent += q.BytesSent
		q.BytesSent = 0
		q.BytesValue = 0
	}
	return grads, sent
}

// evaluate runs the trained master model forward over the full graph.
func (d *dist) evaluate(master *gnn.Model) (acc, loss float64) {
	logits := master.Forward(d.task.X)
	loss, _ = nn.SoftmaxCrossEntropy(logits, d.task.Labels)
	return nn.Accuracy(logits, d.task.Labels, d.task.TestMask), loss
}

// finish fills the result fields common to all training modes and attaches
// the storage section to the trace of metered runs.
func (d *dist) finish(res *DistResult, master *gnn.Model, workload string) {
	res.TestAcc, res.Loss = d.evaluate(master)
	res.Net = d.clst.Network().Stats()
	res.RemoteFrac = d.fs.RemoteFraction()
	res.Hits, res.Misses, res.Local = d.fs.Hits, d.fs.Misses, d.fs.Local
	res.Trace = obs.Finish(d.cfg.RunOptions, workload, d.clst)
	if res.Trace != nil {
		res.Trace.Storage = d.meter.Trace()
	}
}

// storageFailed surfaces the first sampling I/O error as a typed error at the
// round barrier (mirroring pregel's superstep-barrier check).
func (d *dist) storageFailed(round int) error {
	if d.srcErr == nil {
		return nil
	}
	return fmt.Errorf("gnndist: round %d: %w", round, d.srcErr)
}

// TrainSync runs fully synchronous data-parallel training: every round all
// workers compute gradients on the same weight version, gradients are
// averaged on a parameter server, and new weights are broadcast. A round
// costs the time of the SLOWEST worker (the straggler effect asynchronous
// modes avoid). Under an injected crash (RunOptions.Faults) the run rolls
// back to the latest checkpoint and replays deterministically, so the final
// model matches the fault-free run exactly; the replayed work is metered in
// the trace's recovery section.
func TrainSync(task *gnn.Task, cfg TrainerConfig) (DistResult, error) {
	return trainSync(task, cfg, false)
}

// TrainSancus is TrainSync with Sancus' staleness-aware communication
// avoidance: after the parameter server applies a round's gradients, the
// fresh weights are broadcast only if they changed by more than
// cfg.SancusTau relative to the last broadcast; otherwise workers keep
// computing on their (bounded-stale) copy and the broadcast is skipped —
// saving bytes with negligible accuracy impact when updates are small. The
// copy is checkpoint state, so crash recovery is as exact as TrainSync's.
func TrainSancus(task *gnn.Task, cfg TrainerConfig) (DistResult, error) {
	return trainSync(task, cfg, true)
}

// trainSync is the synchronous round loop. Workers compute on the weights
// they hold: master itself under sync, which broadcasts every round, or
// under Sancus a copy that only a broadcast refreshes.
func trainSync(task *gnn.Task, cfg TrainerConfig, sancus bool) (DistResult, error) {
	d, err := newDist(task, cfg)
	if err != nil {
		return DistResult{}, err
	}
	defer d.close()
	cfg = d.cfg
	masterModel, master := newMaster(d)
	opt := nn.NewAdam(cfg.LR)
	params := masterModel.Params()
	ps := 0 // parameter-server worker
	var res DistResult
	workload, held, copies := "gnndist/sync", master, []weights(nil)
	if sancus {
		held = cloneWeights(master)
		workload, copies = "gnndist/sancus", []weights{held}
	}

	// implicit restart point: the freshly initialised model costs nothing to
	// "checkpoint" (every worker can rebuild it from the seed)
	last := d.snapshot(0, res, master, copies, opt, params)
	for r := 0; res.SimTime < cfg.TimeBudget; r++ {
		if cfg.CheckpointEvery > 0 && r > 0 && r%cfg.CheckpointEvery == 0 {
			last = d.snapshot(r, res, master, copies, opt, params)
			d.fi.NoteCheckpoint(last.bytes())
		}
		if d.fi.CrashDue(r) {
			// a worker dies at the round barrier: every worker reloads the
			// last snapshot and the lost rounds are replayed (deterministic —
			// RNG positions and optimiser moments are part of the snapshot)
			d.fi.NoteRecovery(r-last.round, res.SimTime-last.res.SimTime)
			res = d.restore(last, master, copies, opt, params)
			r = last.round
		}
		// all workers compute on the same version
		var roundMax float64
		for w := 0; w < cfg.Workers; w++ {
			grads, sent := d.gradStep(w, held)
			res.GradBytes += sent
			if grads != nil {
				d.clst.Network().Account(w, ps, sent)
				for i, p := range params {
					p.Grad.AddScaled(grads[i], 1/float32(cfg.Workers))
				}
			}
			sp := d.speed(w)
			d.clst.AddBusy(w, sp)
			if sp > roundMax {
				roundMax = sp
			}
		}
		if err := d.storageFailed(r); err != nil {
			return DistResult{}, err
		}
		d.meter.Round(r)
		opt.Step(params)
		res.Steps++
		res.SyncRounds++
		if !sancus || relChange(master, held) > cfg.SancusTau {
			wb := weightBytes(master)
			for w := 0; w < cfg.Workers; w++ {
				if w != ps {
					d.clst.Network().Account(ps, w, wb)
				}
			}
			if sancus {
				copyWeights(held, master)
			}
		} else {
			res.Skipped++
		}
		d.clst.Network().AccountRound()
		res.SimTime += roundMax
	}
	d.finish(&res, masterModel, workload)
	return res, nil
}

// TrainBoundedStale runs asynchronous training with bounded staleness
// (Dorylus/P³): each worker proceeds at its own speed, pushing gradients to
// the parameter server as they complete and pulling fresh weights only when
// its version lag exceeds cfg.Staleness. Stragglers no longer gate the
// round, so more gradient steps land within the same simulated time budget.
// Crash recovery mirrors TrainSync: scheduler events count as rounds for
// CheckpointEvery/CrashAtRound, and a snapshot additionally carries each
// worker's stale weight copy and version clock.
func TrainBoundedStale(task *gnn.Task, cfg TrainerConfig) (DistResult, error) {
	d, err := newDist(task, cfg)
	if err != nil {
		return DistResult{}, err
	}
	defer d.close()
	cfg = d.cfg
	masterModel, master := newMaster(d)
	opt := nn.NewAdam(cfg.LR)
	params := masterModel.Params()
	ps := 0
	var res DistResult

	clock := make([]float64, cfg.Workers)
	local := make([]weights, cfg.Workers)
	version := make([]int64, cfg.Workers)
	var masterVersion int64
	for w := range local {
		local[w] = cloneWeights(master)
	}
	type staleCkpt struct {
		base          *syncCkpt // holds the per-worker stale copies too
		clock         []float64
		version       []int64
		masterVersion int64
	}
	takeStale := func(ev int) *staleCkpt {
		return &staleCkpt{
			base:          d.snapshot(ev, res, master, local, opt, params),
			clock:         append([]float64(nil), clock...),
			version:       append([]int64(nil), version...),
			masterVersion: masterVersion,
		}
	}
	last := takeStale(0)
	maxClock := func(c []float64) float64 {
		var m float64
		for _, t := range c {
			if t > m {
				m = t
			}
		}
		return m
	}
	for ev := 0; ; ev++ {
		if cfg.CheckpointEvery > 0 && ev > 0 && ev%cfg.CheckpointEvery == 0 {
			last = takeStale(ev)
			d.fi.NoteCheckpoint(last.base.bytes())
		}
		if d.fi.CrashDue(ev) {
			d.fi.NoteRecovery(ev-last.base.round, maxClock(clock)-maxClock(last.clock))
			res = d.restore(last.base, master, local, opt, params)
			copy(clock, last.clock)
			copy(version, last.version)
			masterVersion = last.masterVersion
			ev = last.base.round
		}
		// next worker to finish a step
		next, best := -1, cfg.TimeBudget
		for w := 0; w < cfg.Workers; w++ {
			if t := clock[w] + d.speed(w); t <= best {
				next, best = w, t
			}
		}
		if next == -1 {
			break
		}
		w := next
		clock[w] = best
		d.clst.AddBusy(w, d.speed(w))
		// pull if too stale
		if masterVersion-version[w] > int64(cfg.Staleness) {
			copyWeights(local[w], master)
			version[w] = masterVersion
			d.clst.Network().Account(ps, w, weightBytes(master))
		}
		grads, sent := d.gradStep(w, local[w])
		if err := d.storageFailed(ev); err != nil {
			return DistResult{}, err
		}
		d.meter.Round(ev)
		res.GradBytes += sent
		if grads != nil {
			d.clst.Network().Account(w, ps, sent)
			for i, p := range params {
				p.Grad.AddInPlace(grads[i])
			}
			opt.Step(params)
			masterVersion++
			res.Steps++
		}
	}
	res.SimTime = maxClock(clock)
	d.finish(&res, masterModel, "gnndist/bounded-stale")
	return res, nil
}
