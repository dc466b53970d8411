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
	"sync"

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

	// Source, if non-nil, serves adjacency through the out-of-core storage
	// layer: every worker reads Degree/Neighbors from its private
	// storage.GraphSource handle instead of the in-memory CSR, with disk I/O
	// metered into the trace. Run may then be called with a nil graph, in
	// which case Compute must reach adjacency only through the Context
	// (ctx.Degree / ctx.Neighbors / ctx.SendToNeighbors — ctx.Graph() is
	// nil). When Source is nil and the process-global storage policy
	// (storage.SetDefault) selects disk mode, the engine spills the graph to
	// a temporary block file and runs through it under the policy's memory
	// budget. The provider is not closed by Run.
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

func (c *Config) defaults(n int) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 1000
	}
	if c.Partition == nil {
		c.Partition = make([]int, n)
		for v := 0; v < n; v++ {
			h := uint64(v) * 0x9e3779b97f4a7c15
			c.Partition[v] = int(h % uint64(c.Workers))
		}
	}
}

// validate checks a user-supplied Partition up front, so a bad placement
// fails with a clear error instead of an opaque index panic mid-superstep.
func (c *Config) validate(n int) error {
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
	eng       engineIface[M]
	g         *graph.Graph
	src       storage.GraphSource // per-worker out-of-core handle (nil on in-memory runs)
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

type engineIface[M any] interface {
	aggPrev(name string) float64
}

// Superstep returns the current superstep number (0-based).
func (c *Context[M]) Superstep() int { return c.superstep }

// Graph returns the input graph. It is nil on Source-only runs (Config.Source
// set, Run called with a nil graph); programs meant to run out-of-core must
// use ctx.Degree / ctx.Neighbors / ctx.SendToNeighbors instead.
func (c *Context[M]) Graph() *graph.Graph { return c.g }

// Degree returns the out-degree of v, from the storage layer's resident
// degree table on out-of-core runs.
func (c *Context[M]) Degree(v graph.V) int {
	if c.src != nil {
		return c.src.Degree(v)
	}
	return c.g.Degree(v)
}

// Neighbors returns the sorted neighbor list of v, valid until the next
// adjacency access on this worker. On out-of-core runs a block decode
// failure records the error (surfaced by Run at the superstep barrier) and
// returns nil, so Compute code stays free of error plumbing.
func (c *Context[M]) Neighbors(v graph.V) []graph.V {
	if c.src != nil {
		ns, err := c.src.Neighbors(v)
		if err != nil && c.srcErr == nil {
			c.srcErr = err
		}
		return ns
	}
	return c.g.Neighbors(v)
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
func (c *Context[M]) Agg(name string) float64 { return c.eng.aggPrev(name) }

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
	if g == nil && cfg.Source == nil {
		return nil, fmt.Errorf("pregel: nil graph requires Config.Source")
	}
	n := 0
	if g != nil {
		n = g.NumVertices()
	} else {
		n = cfg.Source.NumVertices()
	}
	cfg.defaults(n)
	if err := cfg.validate(n); err != nil {
		return nil, err
	}
	if prog.CombineKey != nil && prog.CombineKeys < 1 {
		return nil, fmt.Errorf("pregel: Program.CombineKey needs CombineKeys ≥ 1, got %d", prog.CombineKeys)
	}
	prov := cfg.Source
	if prov == nil {
		if pol := storage.Default(); pol != nil && pol.Disk {
			sp, err := pol.Spill(g, cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("pregel: spilling graph under storage policy: %w", err)
			}
			defer sp.Close()
			prov = sp
		}
	}
	c := cluster.New(cfg.Workers)
	net := c.Network()
	fi := cfg.RunOptions.Apply(c)

	eng := &engine[S, M]{agg: map[string]float64{}}

	states := make([]S, n)
	active := make([]bool, n)
	owned := make([][]graph.V, cfg.Workers)
	routes := make([]route, n) // global vertex → owner and owner-local dense id
	for v := 0; v < n; v++ {
		p := cfg.Partition[v]
		routes[v] = route{worker: int32(p), local: int32(len(owned[p]))}
		owned[p] = append(owned[p], graph.V(v))
	}
	// per-worker active-vertex counters, maintained at halt/reactivate time so
	// the per-superstep liveness check is O(workers), not O(n)
	activeCnt := make([]int64, cfg.Workers)

	// per-vertex message views into the delivery's flat buffers (only the
	// owner worker touches an entry)
	msgs := make([][]M, n)

	mb := cluster.NewMailboxes[M](net, nil) // 8 bytes a message
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
		mb.SetDenseCombiner(func(dest int) int { return k * len(owned[dest]) }, unused, prog.Combine)
	}
	dlv := newDelivery[M](owned, k)

	// one long-lived Context per worker; superstep/halted are rewritten each
	// round and the aggregator map is cleared (never reallocated) after merge
	ctxs := make([]*Context[M], cfg.Workers)
	aggLocals := make([]map[string]float64, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		ctx := &Context[M]{
			eng: eng, g: g,
			out:      mb.Outbox(w),
			routes:   routes,
			key:      key,
			keys:     k,
			aggLocal: map[string]float64{},
		}
		if prov != nil {
			ctx.src = prov.Handle(w)
		}
		ctxs[w] = ctx
		aggLocals[w] = ctx.aggLocal
	}

	// the persistent gang replaces per-phase goroutine spawning: the phase
	// closures below are created once and reused every round, so dispatching
	// a superstep allocates nothing
	gang := c.NewGang()
	defer gang.Close()

	// without Init every state starts (and restarts after a crash) at the
	// zero S
	var zero S
	initPhase := func(w int) {
		for _, v := range owned[w] {
			if prog.Init != nil {
				states[v] = prog.Init(g, v)
			} else {
				states[v] = zero
			}
			active[v] = true
			msgs[v] = nil
		}
		activeCnt[w] = int64(len(owned[w]))
	}
	gang.Run(initPhase)

	// LWCP checkpointing state
	type snapshot struct {
		step   int
		states []S
		active []bool
		msgs   [][]M
	}
	var ckpt *snapshot
	var ckptBytes int64
	var ckptCount int
	recovered := 0
	takeCheckpoint := func(step int) {
		s := &snapshot{step: step, states: append([]S(nil), states...), active: append([]bool(nil), active...)}
		s.msgs = make([][]M, n)
		var msgCount int64
		for v := range msgs {
			s.msgs[v] = append([]M(nil), msgs[v]...)
			msgCount += int64(len(msgs[v]))
		}
		ckpt = s
		bytes := (int64(n) + msgCount) * 8
		ckptBytes += bytes
		ckptCount++
		fi.NoteCheckpoint(bytes)
	}

	// the two hot-path phases, created once and reused every round; `step`
	// is published to the workers through the gang's mutex handoff
	step := 0
	//lint:hotpath per-round compute phase: one call per active vertex per superstep
	computePhase := func(w int) {
		ctx := ctxs[w]
		ctx.superstep = step
		cnt := activeCnt[w]
		for _, v := range owned[w] {
			if !active[v] {
				continue
			}
			ctx.halted = false
			prog.Compute(ctx, v, &states[v], msgs[v])
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
		activeCnt[w] = cnt
	}
	//lint:hotpath per-round demux phase: groups every inbound message by destination
	demuxPhase := func(w int) {
		activeCnt[w] += dlv.scatter(w, mb.Receive(w), mb.ReceiveSlots(w), msgs, active)
	}

	// aggNext and eng.agg are two maps swapped every round: merge into the
	// spare, publish it under the lock, clear the stale one for next round
	aggNext := map[string]float64{}

	// per-round disk I/O series for the trace (out-of-core runs only)
	var stRounds []obs.StorageRound
	var stPrev storage.IOStats
	meterStorage := prov != nil && prov.Footprint().Metered()
	collectRounds := meterStorage && cfg.RunOptions.Trace

	steps := 0
	for step = 0; step < cfg.MaxSupersteps; step++ {
		if cfg.CheckpointEvery > 0 && step%cfg.CheckpointEvery == 0 {
			takeCheckpoint(step)
		}
		if fi.CrashDue(step) {
			// a worker dies at the superstep barrier: roll every worker back
			// to the last checkpoint (synchronous recovery, the Pregel/LWCP
			// model)
			if ckpt != nil {
				copy(states, ckpt.states)
				copy(active, ckpt.active)
				for v := range msgs {
					// the snapshot's buffers are copied out, not aliased: the
					// flat delivery buffers still hold failed-epoch data and
					// will be recycled on the next demux
					if len(ckpt.msgs[v]) == 0 {
						msgs[v] = nil
					} else {
						msgs[v] = append([]M(nil), ckpt.msgs[v]...)
					}
				}
				for w := range owned {
					var cnt int64
					for _, v := range owned[w] {
						if active[v] {
							cnt++
						}
					}
					activeCnt[w] = cnt
				}
				recovered = step - ckpt.step
				mb.Exchange() // drop in-flight messages from the failed epoch
				step = ckpt.step
			} else {
				// no checkpoint: full restart
				recovered = step
				gang.Run(initPhase)
				mb.Exchange()
				step = 0
			}
			fi.NoteRecovery(recovered, float64(recovered))
		}
		steps = step + 1
		var totalActive int64
		for _, a := range activeCnt {
			totalActive += a
		}
		if totalActive == 0 {
			steps = step
			break
		}
		gang.Run(computePhase)
		for _, ctx := range ctxs {
			if ctx.srcErr != nil {
				return nil, fmt.Errorf("pregel: superstep %d: %w", step, ctx.srcErr)
			}
		}
		for _, ctx := range ctxs {
			if ctx.badKey {
				return nil, fmt.Errorf("pregel: superstep %d: CombineKey returned a key outside [0, %d)", step, prog.CombineKeys)
			}
		}
		if collectRounds {
			cur := prov.Stats()
			d := cur.Sub(stPrev)
			stPrev = cur
			stRounds = append(stRounds, obs.StorageRound{
				Round: step, Hits: d.Hits, Misses: d.Misses, Evictions: d.Evictions,
				BlocksRead: d.BlocksRead, BytesRead: d.BytesRead,
			})
		}
		delivered := mb.Exchange()
		for _, local := range aggLocals { // ascending worker rank
			if len(local) == 0 {
				continue
			}
			for _, k := range det.SortedKeys(local) {
				aggNext[k] += local[k]
			}
			clear(local)
		}
		eng.mu.Lock()
		eng.agg, aggNext = aggNext, eng.agg
		eng.mu.Unlock()
		clear(aggNext) // last round's published values, now stale
		if delivered == 0 {
			// no messages: if nothing re-activates, engine can stop after
			// letting still-active vertices run next loop iteration
			var stillActive int64
			for _, a := range activeCnt {
				stillActive += a
			}
			if stillActive == 0 {
				break
			}
			continue
		}
		// demux into the columnar per-worker buffers and reactivate recipients
		gang.Run(demuxPhase)
	}
	res := &Result[S]{
		States: states, Supersteps: steps, Net: net.Stats(),
		CheckpointBytes: ckptBytes, Checkpoints: ckptCount, RecoveredSteps: recovered,
	}
	res.Trace = obs.Finish(cfg.RunOptions, "pregel", c)
	if res.Trace != nil && meterStorage {
		res.Trace.Storage = storageTrace(prov, stRounds)
	}
	return res, nil
}

// storageTrace assembles the obs storage section from a metered provider's
// footprint, run totals and the per-round series.
func storageTrace(prov storage.Provider, rounds []obs.StorageRound) *obs.StorageTrace {
	fp := prov.Footprint()
	st := prov.Stats()
	return &obs.StorageTrace{
		Kind:          fp.Kind,
		FileBytes:     fp.FileBytes,
		ResidentBytes: fp.ResidentBytes,
		CacheBytes:    fp.CacheBytes,
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		BlocksRead:    st.BlocksRead,
		BytesRead:     st.BytesRead,
		HitRatio:      st.HitRatio(),
		Rounds:        rounds,
	}
}

type engine[S, M any] struct {
	mu  sync.Mutex
	agg map[string]float64
}

func (e *engine[S, M]) aggPrev(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.agg[name]
}
