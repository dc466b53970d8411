// Package pregel implements a think-like-a-vertex (TLAV) graph-parallel
// engine in the style of Google's Pregel and Pregel+: bulk-synchronous
// supersteps, per-vertex compute functions, message passing with optional
// sender-side combiners, global aggregators, and vote-to-halt semantics.
//
// The engine runs on the metered cluster runtime, so every cross-worker
// message is accounted; the paper's point that TLAV systems suit iterative
// O((|V|+|E|)·log|V|) computations (and not subgraph search) is reproduced by
// the complexity and triangle-counting benchmarks built on this package.
package pregel

import (
	"fmt"

	"graphsys/internal/cluster"
	"graphsys/internal/det"
	"graphsys/internal/graph"
	"graphsys/internal/obs"
	"graphsys/internal/storage"
)

// Config controls an engine run.
type Config struct {
	Workers       int   // number of simulated workers (default 4)
	MaxSupersteps int   // safety bound (default 1000)
	Partition     []int // vertex → worker; nil = hash placement

	// Source, if non-nil, is the storage.Provider every worker reads
	// Degree/Neighbors through, from its own storage.GraphSource handle;
	// a disk-backed Source meters its I/O into the trace. Run may then be
	// called with a nil graph, in which case Compute must reach adjacency
	// only through the Context (ctx.Degree / ctx.Neighbors /
	// ctx.SendToNeighbors — ctx.Graph() is nil). When Source is nil,
	// storage.ProviderFor picks the provider: a spill of the graph under the
	// process-global storage policy when that selects disk, else the graph
	// in memory. Run does not close a Source it was given.
	Source storage.Provider

	// Fault tolerance (LWCP-style lightweight checkpointing, Yan et al.
	// ICPP'19): every CheckpointEvery supersteps the engine snapshots vertex
	// states, activity flags and delivered messages, and a crash injected by
	// the runtime fault plan (RunOptions.Faults.CrashAtRound) rolls every
	// worker back to the latest checkpoint — or restarts when there is none —
	// and recomputes. A checkpoint is metered at 8 bytes per vertex state
	// and per message, the wire size every message is metered at.
	CheckpointEvery int

	// RunOptions is the cross-cutting runtime configuration shared by every
	// engine: Trace (observability opt-in), Topology (link costs), Faults
	// (crash/straggler/lossy-link injection).
	cluster.RunOptions
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 1000
	}
}

// place fills in the hash placement when Partition is nil and otherwise
// checks the user's Partition up front, so a bad placement fails with a
// clear error instead of an opaque index panic mid-superstep.
func (c *Config) place(n int) error {
	if c.Partition == nil {
		c.Partition = make([]int, n)
		for v := 0; v < n; v++ {
			h := uint64(v) * 0x9e3779b97f4a7c15
			c.Partition[v] = int(h % uint64(c.Workers))
		}
		return nil
	}
	if len(c.Partition) != n {
		return fmt.Errorf("pregel: Config.Partition has %d entries for a graph with %d vertices", len(c.Partition), n)
	}
	for v, w := range c.Partition {
		if w < 0 || w >= c.Workers {
			return fmt.Errorf("pregel: Config.Partition[%d] = %d, want a worker id in [0,%d)", v, w, c.Workers)
		}
	}
	return nil
}

// Program defines a vertex program. S is the vertex state type, M the
// message type.
type Program[S, M any] struct {
	// Init produces the initial state of v. Called once before superstep 0.
	Init func(g *graph.Graph, v graph.V) S
	// Compute is called at every superstep for each active vertex (a vertex
	// is active in superstep 0, and whenever it has incoming messages).
	Compute func(ctx *Context[M], v graph.V, state *S, msgs []M)
	// Combine, if non-nil, merges two messages addressed to the same vertex
	// on the sender side (Pregel's combiner), cutting message volume. The
	// combiner runs inside the cluster substrate's staging buffers, so
	// combining happens as messages are queued, before any of them is
	// metered on the network. A sender combines its messages per class in
	// send order, as Combine(queued, incoming), and a class keeps the
	// position of its first message.
	Combine func(a, b M) M
	// CombineKey, if non-nil, refines the combining classes: only messages to
	// the same vertex with equal CombineKey(m) are merged. The key must lie
	// in [0, CombineKeys); Run addresses the class (vertex, key) as slot
	// localIdx(vertex)·CombineKeys + key at the owner worker
	// (cluster.Mailboxes.SetDenseCombiner) and fails with an error when a key
	// falls outside the range. Quegel keys on the query id, so concurrent
	// queries' frontiers never mix. Leave nil to combine all messages
	// addressed to one vertex (classic Pregel: one class per vertex).
	CombineKey func(m M) int32
	// CombineKeys is the number of CombineKey classes per vertex; it must be
	// at least 1 when CombineKey is set. The combining lanes cost about
	// (sizeof(M)+4)·CombineKeys·n bytes per worker.
	CombineKeys int
}

// Context is the per-worker handle passed to Compute.
type Context[M any] struct {
	agg       *aggregators
	g         *graph.Graph
	src       storage.GraphSource // this worker's adjacency handle
	srcErr    error               // first adjacency read failure; checked at the superstep barrier
	superstep int
	halted    bool // set per vertex via VoteToHalt; reset by engine

	out    *cluster.Outbox[M] // this worker's staging outbox
	routes []route            // per vertex: where its messages go
	key    func(m M) int32    // Program.CombineKey on combined runs, else nil
	keys   int                // K: slots per vertex (1 without a key)
	badKey bool               // key returned a value outside [0, keys); checked at the superstep barrier

	aggLocal map[string]float64
}

// route addresses a vertex's messages: its owner worker and its index in the
// owner's owned list, the slot base at the destination.
type route struct {
	worker, local int32
}

// Superstep returns the current superstep number (0-based).
func (c *Context[M]) Superstep() int { return c.superstep }

// Graph returns the input graph, for programs that need edge weights or
// HasEdge. It is nil on Source-only runs (Config.Source set, Run called
// with a nil graph); programs meant to run out-of-core must use ctx.Degree /
// ctx.Neighbors / ctx.SendToNeighbors instead.
func (c *Context[M]) Graph() *graph.Graph { return c.g }

// Degree returns the out-degree of v, from the storage layer's resident
// degree table on out-of-core runs.
func (c *Context[M]) Degree(v graph.V) int { return c.src.Degree(v) }

// Neighbors returns the sorted neighbor list of v, valid until the next
// adjacency access on this worker. On out-of-core runs a block decode
// failure records the error (surfaced by Run at the superstep barrier) and
// returns nil, so Compute code stays free of error plumbing.
func (c *Context[M]) Neighbors(v graph.V) []graph.V {
	ns, err := c.src.Neighbors(v)
	if err != nil && c.srcErr == nil {
		c.srcErr = err
	}
	return ns
}

// Send sends m to vertex to, delivered at the next superstep. The message
// goes straight into the sending worker's staging outbox at slot
// local(to)·K + key — a lock-free append, combined in place when the program
// has a combiner. One route load addresses it; the receiver needs no lookup.
func (c *Context[M]) Send(to graph.V, m M) {
	r := c.routes[to]
	slot := int(r.local)
	if c.key != nil {
		k := c.key(m)
		if k < 0 || int(k) >= c.keys {
			// never alias the next vertex's classes: park the message in
			// the vertex's first class and fail the run
			c.badKey = true
			k = 0
		}
		slot = slot*c.keys + int(k)
	}
	c.out.SendSlot(int(r.worker), slot, m)
}

// SendToNeighbors sends m to every neighbor of v.
func (c *Context[M]) SendToNeighbors(v graph.V, m M) {
	for _, w := range c.Neighbors(v) {
		c.Send(w, m)
	}
}

// VoteToHalt deactivates the current vertex until a message re-activates it.
func (c *Context[M]) VoteToHalt() { c.halted = true }

// Aggregate adds v into the named float-sum aggregator; the total becomes
// readable via Agg in the NEXT superstep (Pregel semantics).
func (c *Context[M]) Aggregate(name string, v float64) {
	c.aggLocal[name] += v
}

// Agg returns the value of the named aggregator from the previous superstep.
func (c *Context[M]) Agg(name string) float64 { return c.agg.cur[name] }

// Result of a run.
type Result[S any] struct {
	States     []S
	Supersteps int
	Net        cluster.Stats

	// Trace is the observability snapshot of the run (nil unless
	// Config.Trace was set).
	Trace *obs.Trace

	// Fault-tolerance accounting (zero unless Config enables it).
	CheckpointBytes int64 // total snapshot volume written
	Checkpoints     int   // snapshots taken
	RecoveredSteps  int   // supersteps recomputed after the injected failure
}

// Run executes prog on g until all vertices halt with no messages in flight,
// or cfg.MaxSupersteps is reached. It returns an error for an invalid Config
// or Program (bad Partition, CombineKey without CombineKeys) without starting
// the run, and fails at the barrier of a superstep in which CombineKey
// returned a key outside [0, CombineKeys). g may be nil when Config.Source
// is set (out-of-core run); adjacency then comes from per-worker storage
// handles and a mid-run read failure aborts with a wrapped storage error.
func Run[S, M any](g *graph.Graph, prog Program[S, M], cfg Config) (*Result[S], error) {
	r, err := newRun(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.gang.Run(r.initFn)
	for r.step = 0; r.step < r.cfg.MaxSupersteps; r.step++ {
		r.checkpointOrRecover()
		r.res.Supersteps = r.step
		if r.live() == 0 {
			break
		}
		r.res.Supersteps++
		done, err := r.superstep()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return r.finish(), nil
}

// run is the state of one Run: the vertex arrays its phases share, the
// per-worker contexts, the runtime machinery and the checkpoint. Vertex
// entries are touched only by their owner worker.
type run[S, M any] struct {
	g    *graph.Graph
	prog Program[S, M]
	cfg  Config

	prov     storage.Provider // adjacency: Config.Source, a policy spill, or g in memory
	ownsProv bool             // prov is a spill this run closes
	meter    *storage.Meter   // per-round I/O of traced disk-backed runs; nil otherwise

	c    *cluster.Cluster
	fi   *cluster.FaultInjector
	mb   *cluster.Mailboxes[M]
	dlv  *delivery[M]
	gang *cluster.Gang

	owned     [][]graph.V // per worker, the vertices it owns
	states    []S
	active    []bool
	msgs      [][]M   // per vertex, a view into the delivery's flat buffers
	activeCnt []int64 // per worker, kept at halt/reactivate time so liveness is O(workers)
	ctxs      []*Context[M]
	agg       *aggregators

	// the phases, bound once so dispatching a superstep allocates nothing
	initFn, computeFn, demuxFn func(w int)

	step int             // published to the workers by the gang's handoff
	ckpt *snapshot[S, M] // latest LWCP checkpoint
	res  Result[S]       // supersteps and fault-tolerance accounting so far
}

// snapshot is an LWCP checkpoint: states, activity flags (with their
// per-worker counts) and delivered messages at the start of superstep step.
type snapshot[S, M any] struct {
	step      int
	states    []S
	active    []bool
	activeCnt []int64
	msgs      [][]M
}

// newRun validates the input, picks the provider and builds the routes,
// mailboxes, delivery, contexts and gang.
func newRun[S, M any](g *graph.Graph, prog Program[S, M], cfg Config) (*run[S, M], error) {
	if g == nil && cfg.Source == nil {
		return nil, fmt.Errorf("pregel: nil graph requires Config.Source")
	}
	cfg.defaults()
	prov, owns, err := storage.ProviderFor(g, cfg.Source, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("pregel: spilling graph under storage policy: %w", err)
	}
	r := &run[S, M]{g: g, prog: prog, cfg: cfg, prov: prov, ownsProv: owns}
	n := prov.NumVertices()
	err = r.cfg.place(n)
	if err == nil && prog.CombineKey != nil && prog.CombineKeys < 1 {
		err = fmt.Errorf("pregel: Program.CombineKey needs CombineKeys ≥ 1, got %d", prog.CombineKeys)
	}
	if err != nil {
		if owns {
			prov.Close()
		}
		return nil, err
	}
	r.meter = storage.NewMeter(prov, r.cfg.Trace)
	r.c = cluster.New(r.cfg.Workers)
	r.fi = r.cfg.RunOptions.Apply(r.c)
	r.states, r.active, r.msgs = make([]S, n), make([]bool, n), make([][]M, n)
	r.owned, r.activeCnt = make([][]graph.V, r.cfg.Workers), make([]int64, r.cfg.Workers)
	routes := make([]route, n) // global vertex → owner and owner-local dense id
	for v := 0; v < n; v++ {
		p := r.cfg.Partition[v]
		routes[v] = route{worker: int32(p), local: int32(len(r.owned[p]))}
		r.owned[p] = append(r.owned[p], graph.V(v))
	}

	r.mb = cluster.NewMailboxes[M](r.c.Network(), nil) // 8 bytes a message
	// a message's slot at its owner is local·k + key; without a combine key
	// k = 1 and key 0, i.e. the slot is the owner-local vertex id
	k := 1
	var key func(M) int32
	if prog.Combine != nil {
		// hoist the program's combiner into the substrate, combining inside
		// the sender's lane before anything reaches the wire
		if prog.CombineKey != nil {
			k, key = prog.CombineKeys, prog.CombineKey
		}
		// Context.Send addresses every message through SendSlot, so the
		// slot function Outbox.Send would call is never used
		unused := func(M) int { return 0 }
		r.mb.SetDenseCombiner(func(dest int) int { return k * len(r.owned[dest]) }, unused, prog.Combine)
	}
	r.dlv = newDelivery[M](r.owned, k)

	// one long-lived Context per worker; superstep/halted are rewritten each
	// round and the aggregator map is cleared (never reallocated) after merge
	r.agg = &aggregators{cur: map[string]float64{}}
	r.ctxs = make([]*Context[M], r.cfg.Workers)
	for w := range r.ctxs {
		r.ctxs[w] = &Context[M]{
			agg: r.agg, g: g, src: prov.Handle(w),
			out:      r.mb.Outbox(w),
			routes:   routes,
			key:      key,
			keys:     k,
			aggLocal: map[string]float64{},
		}
		r.agg.locals = append(r.agg.locals, r.ctxs[w].aggLocal)
	}
	// the persistent gang replaces per-phase goroutine spawning
	r.initFn, r.computeFn, r.demuxFn = r.initPhase, r.computePhase, r.demuxPhase
	r.gang = r.c.NewGang()
	return r, nil
}

// initPhase gives worker w's vertices their initial state, active and with
// no messages. Without Init every state starts (and restarts after a crash)
// at the zero S.
func (r *run[S, M]) initPhase(w int) {
	var zero S
	for _, v := range r.owned[w] {
		if r.prog.Init != nil {
			r.states[v] = r.prog.Init(r.g, v)
		} else {
			r.states[v] = zero
		}
		r.active[v] = true
		r.msgs[v] = nil
	}
	r.activeCnt[w] = int64(len(r.owned[w]))
}

// computePhase runs Compute on worker w's active vertices.
//
//lint:hotpath per-round compute phase: one call per active vertex per superstep
func (r *run[S, M]) computePhase(w int) {
	ctx := r.ctxs[w]
	ctx.superstep = r.step
	compute, states, active, msgs := r.prog.Compute, r.states, r.active, r.msgs
	cnt := r.activeCnt[w]
	for _, v := range r.owned[w] {
		if !active[v] {
			continue
		}
		ctx.halted = false
		compute(ctx, v, &states[v], msgs[v])
		// msgs[v] is a view into the delivery's flat buffer — drop it so
		// the buffer can be recycled next round
		msgs[v] = nil
		if ctx.halted {
			active[v] = false
			cnt--
		}
	}
	// outgoing messages are already staged in the worker's outbox;
	// Exchange at the barrier meters and delivers them. Aggregator
	// contributions land in the worker's own map — merging happens after
	// the barrier, in worker-rank order, so float sums are bitwise
	// identical run to run (merging under a mutex here would add in
	// worker-completion order, i.e. scheduling order).
	r.activeCnt[w] = cnt
}

// demuxPhase groups worker w's inbound messages by destination and
// reactivates their recipients.
//
//lint:hotpath per-round demux phase: groups every inbound message by destination
func (r *run[S, M]) demuxPhase(w int) {
	r.activeCnt[w] += r.dlv.scatter(w, r.mb.Receive(w), r.mb.ReceiveSlots(w), r.msgs, r.active)
}

// superstep runs the compute phase of r.step, checks its barrier, exchanges
// the staged messages, publishes the aggregators and demuxes the delivery.
// done reports that nothing was delivered and no vertex is still active.
func (r *run[S, M]) superstep() (done bool, err error) {
	r.gang.Run(r.computeFn)
	for _, ctx := range r.ctxs {
		if ctx.srcErr != nil {
			return false, fmt.Errorf("pregel: superstep %d: %w", r.step, ctx.srcErr)
		}
	}
	for _, ctx := range r.ctxs {
		if ctx.badKey {
			return false, fmt.Errorf("pregel: superstep %d: CombineKey returned a key outside [0, %d)", r.step, r.prog.CombineKeys)
		}
	}
	r.meter.Round(r.step)
	delivered := r.mb.Exchange()
	r.agg.publish()
	if delivered == 0 {
		// no messages: the run stops unless a vertex is still active, and
		// those run again next superstep
		return r.live() == 0, nil
	}
	r.gang.Run(r.demuxFn)
	return false, nil
}

// live returns the number of active vertices.
func (r *run[S, M]) live() int64 {
	var total int64
	for _, a := range r.activeCnt {
		total += a
	}
	return total
}

// checkpointOrRecover takes the checkpoint due at r.step and, when the
// fault plan crashes a worker at this barrier, rolls every worker back to
// the latest checkpoint — or restarts without one — and resets r.step
// (synchronous recovery, the Pregel/LWCP model).
func (r *run[S, M]) checkpointOrRecover() {
	if r.cfg.CheckpointEvery > 0 && r.step%r.cfg.CheckpointEvery == 0 {
		r.checkpoint()
	}
	if !r.fi.CrashDue(r.step) {
		return
	}
	if r.ckpt != nil {
		r.rollback()
	} else {
		// no checkpoint: full restart
		r.res.RecoveredSteps = r.step
		r.gang.Run(r.initFn)
		r.mb.Exchange()
		r.step = 0
	}
	r.fi.NoteRecovery(r.res.RecoveredSteps, float64(r.res.RecoveredSteps))
}

// checkpoint snapshots the run at the start of r.step.
func (r *run[S, M]) checkpoint() {
	s := &snapshot[S, M]{
		step:      r.step,
		states:    append([]S(nil), r.states...),
		active:    append([]bool(nil), r.active...),
		activeCnt: append([]int64(nil), r.activeCnt...),
		msgs:      make([][]M, len(r.msgs)),
	}
	var msgCount int64
	for v := range r.msgs {
		s.msgs[v] = append([]M(nil), r.msgs[v]...)
		msgCount += int64(len(r.msgs[v]))
	}
	r.ckpt = s
	bytes := (int64(len(r.states)) + msgCount) * 8
	r.res.CheckpointBytes += bytes
	r.res.Checkpoints++
	r.fi.NoteCheckpoint(bytes)
}

// rollback restores the latest checkpoint and drops the failed epoch's
// in-flight messages.
func (r *run[S, M]) rollback() {
	copy(r.states, r.ckpt.states)
	copy(r.active, r.ckpt.active)
	copy(r.activeCnt, r.ckpt.activeCnt)
	for v := range r.msgs {
		// the snapshot's buffers are copied out, not aliased: the flat
		// delivery buffers still hold failed-epoch data and will be
		// recycled on the next demux
		if len(r.ckpt.msgs[v]) == 0 {
			r.msgs[v] = nil
		} else {
			r.msgs[v] = append([]M(nil), r.ckpt.msgs[v]...)
		}
	}
	r.res.RecoveredSteps = r.step - r.ckpt.step
	r.mb.Exchange()
	r.step = r.ckpt.step
}

// finish assembles the Result, with the trace and its storage section.
func (r *run[S, M]) finish() *Result[S] {
	res := &r.res
	res.States, res.Net = r.states, r.c.Network().Stats()
	res.Trace = obs.Finish(r.cfg.RunOptions, "pregel", r.c)
	if res.Trace != nil {
		res.Trace.Storage = r.meter.Trace()
	}
	return res
}

// close stops the gang and closes a provider the run owns.
func (r *run[S, M]) close() {
	r.gang.Close()
	if r.ownsProv {
		r.prov.Close()
	}
}

// aggregators carries the float-sum aggregators across the barrier: each
// worker adds into its own local map during compute, and publish merges
// them into the values Agg reads next superstep. Compute reads cur only
// while the gang runs and publish writes it only between gang runs, and the
// gang's handoff orders the two.
type aggregators struct {
	locals []map[string]float64 // per worker, the Context's aggLocal
	cur    map[string]float64
}

// publish replaces cur with the merge of the workers' contributions, added
// in ascending worker rank so float sums are bitwise identical run to run,
// and clears the contributions.
func (a *aggregators) publish() {
	clear(a.cur)
	for _, local := range a.locals {
		if len(local) == 0 {
			continue
		}
		for _, k := range det.SortedKeys(local) {
			a.cur[k] += local[k]
		}
		clear(local)
	}
}
