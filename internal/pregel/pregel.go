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
	MsgBytes      int64 // metered wire size per message (default 8)

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
	// and recomputes. StateBytes sizes the metered checkpoint volume
	// (default 8 bytes/vertex).
	CheckpointEvery int
	StateBytes      int64

	// Comms selects the engine's communication path. The zero value
	// CommsDense is the production path; the others exist as benchmark
	// baselines and equivalence oracles (equivalence_test.go). All three paths
	// produce bitwise-identical results; CommsDense and CommsMap also
	// produce identical network Stats.
	Comms CommsPath

	// RunOptions is the cross-cutting runtime configuration shared by every
	// engine: Trace (observability opt-in), Topology (link costs), Faults
	// (crash/straggler/lossy-link injection).
	cluster.RunOptions
}

// CommsPath selects the mailbox substrate and combiner addressing mode for a
// run (DESIGN.md §3.12).
type CommsPath int

const (
	// CommsDense (the default) runs on the staged substrate with the
	// combiner addressed by a dense []int32 slot table over destination-local
	// vertex ids — one array load per Send instead of a hash + map lookup.
	// Programs whose combining key space is not the destination vertex alone
	// (CombineKey != nil, e.g. quegel's per-query frontiers) fall back to
	// CommsMap addressing automatically.
	CommsDense CommsPath = iota
	// CommsMap runs on the staged substrate with the combiner addressed by a
	// per-destination hash map (the PR 4 path). Kept as the dominance
	// baseline for the dense path.
	CommsMap
	// CommsLegacy runs on the seed's per-message locked mailboxes with no
	// substrate combiner; the inbox is normalized receiver-side (stable sort
	// by sender rank + per-sender-run combining) so results stay bitwise
	// identical to the staged paths. Baseline and equivalence oracle only.
	CommsLegacy
)

func (c *Config) defaults(n int) {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 1000
	}
	if c.MsgBytes <= 0 {
		c.MsgBytes = 8
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
	// combiner runs inside the cluster substrate's staging buffers
	// (cluster.Mailboxes.SetCombiner), so combining happens as messages are
	// queued, before any of them is metered on the network.
	Combine func(a, b M) M
	// CombineKey, if non-nil, refines the combining granularity: only
	// messages to the same vertex with equal CombineKey(m) are merged. Quegel
	// uses it to combine per (vertex, query id) so concurrent queries'
	// frontiers never mix. The key's low 32 bits are used; leave nil to
	// combine all messages addressed to one vertex (classic Pregel).
	CombineKey func(m M) int32
}

// Context is the per-worker handle passed to Compute.
type Context[M any] struct {
	eng       engineIface[M]
	g         *graph.Graph
	src       storage.GraphSource // per-worker out-of-core handle (nil on in-memory runs)
	srcErr    error               // first adjacency read failure; checked at the superstep barrier
	worker    int
	superstep int
	halted    bool // set per vertex via VoteToHalt; reset by engine

	out       *cluster.Outbox[vmsg[M]]    // staged substrate handle (nil on CommsLegacy)
	lmb       *cluster.Mailboxes[lmsg[M]] // legacy substrate handle (nil on staged paths)
	partition []int

	aggLocal map[string]float64
}

// vmsg is the wire envelope of the staged paths: destination vertex and
// payload only. The sender's rank is implied by the staged outbox lane it
// travels in (cluster.Mailboxes merges lanes in sender-rank order), so
// carrying it per message would be 4 dead bytes on the hot path.
type vmsg[M any] struct {
	to graph.V
	m  M
}

// lmsg is the legacy oracle's envelope. The per-message locked mailboxes
// deliver in mutex-scheduling order, so the sender rank must ride along for
// normalizeLegacy to reconstruct the staged substrate's deterministic
// sender-rank inbox order receiver-side.
type lmsg[M any] struct {
	vm     vmsg[M]
	sender int32
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
// goes straight into the sending worker's staging outbox — a lock-free
// append, combined on the fly when the program has a combiner (one slot-table
// load on the dense path, one map lookup on the map path).
func (c *Context[M]) Send(to graph.V, m M) {
	if c.out != nil {
		c.out.Send(c.partition[to], vmsg[M]{to: to, m: m})
		return
	}
	c.lmb.Send(c.worker, c.partition[to], lmsg[M]{vm: vmsg[M]{to: to, m: m}, sender: int32(c.worker)})
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
// (bad Partition) without starting the run. g may be nil when Config.Source
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
	localIdx := make([]int32, n) // global vertex → owner-local dense id
	for v := 0; v < n; v++ {
		p := cfg.Partition[v]
		localIdx[v] = int32(len(owned[p]))
		owned[p] = append(owned[p], graph.V(v))
	}
	// per-worker active-vertex counters, maintained at halt/reactivate time so
	// the per-superstep liveness check is O(workers), not O(n)
	activeCnt := make([]int64, cfg.Workers)

	// per-vertex message views into the delivery's flat buffers (only the
	// owner worker touches an entry)
	msgs := make([][]M, n)

	legacy := cfg.Comms == CommsLegacy
	var mb *cluster.Mailboxes[vmsg[M]]
	var lmb *cluster.Mailboxes[lmsg[M]]
	if legacy {
		lmb = cluster.NewMailboxesLegacy[lmsg[M]](net, func(lmsg[M]) int64 { return cfg.MsgBytes })
	} else {
		mb = cluster.NewMailboxes[vmsg[M]](net, func(vmsg[M]) int64 { return cfg.MsgBytes })
	}
	// combining key: destination vertex, refined by CombineKey when set. The
	// staged map path uses it sender-side; the legacy oracle uses it for
	// receiver-side normalization.
	key := func(vm vmsg[M]) int64 { return int64(vm.to) << 32 }
	if prog.CombineKey != nil {
		key = func(vm vmsg[M]) int64 {
			return int64(vm.to)<<32 | int64(uint32(prog.CombineKey(vm.m)))
		}
	}
	if prog.Combine != nil && !legacy {
		// hoist the program's combiner into the substrate, combining inside
		// the sender's staging buffer before anything reaches the wire
		combine := func(a, b vmsg[M]) vmsg[M] {
			return vmsg[M]{to: a.to, m: prog.Combine(a.m, b.m)}
		}
		if cfg.Comms == CommsDense && prog.CombineKey == nil {
			// dense path: combining classes are exactly the destination
			// vertices, so address them by owner-local dense id
			mb.SetDenseCombiner(
				func(dest int) int { return len(owned[dest]) },
				func(vm vmsg[M]) int { return int(localIdx[vm.to]) },
				combine,
			)
		} else {
			mb.SetCombiner(key, combine)
		}
	}
	exchange := func() int64 {
		if legacy {
			return lmb.Exchange()
		}
		return mb.Exchange()
	}
	dlv := newDelivery[M](owned, localIdx, legacy)

	// one long-lived Context per worker; superstep/halted are rewritten each
	// round and the aggregator map is cleared (never reallocated) after merge
	ctxs := make([]*Context[M], cfg.Workers)
	aggLocals := make([]map[string]float64, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		ctx := &Context[M]{
			eng: eng, g: g, worker: w,
			partition: cfg.Partition,
			aggLocal:  map[string]float64{},
		}
		if prov != nil {
			ctx.src = prov.Handle(w)
		}
		if legacy {
			ctx.lmb = lmb
		} else {
			ctx.out = mb.Outbox(w)
		}
		ctxs[w] = ctx
		aggLocals[w] = ctx.aggLocal
	}

	// the persistent gang replaces per-phase goroutine spawning: the phase
	// closures below are created once and reused every round, so dispatching
	// a superstep allocates nothing
	gang := c.NewGang()
	defer gang.Close()

	initPhase := func(w int) {
		for _, v := range owned[w] {
			if prog.Init != nil {
				states[v] = prog.Init(g, v)
			}
			active[v] = true
			msgs[v] = nil
		}
		activeCnt[w] = int64(len(owned[w]))
	}
	gang.Run(initPhase)

	if cfg.StateBytes <= 0 {
		cfg.StateBytes = 8
	}
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
		bytes := int64(n)*cfg.StateBytes + msgCount*cfg.MsgBytes
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
		var stream []vmsg[M]
		if legacy {
			stream = dlv.normalizeLegacy(w, cfg.Workers, lmb.Receive(w), key, prog.Combine)
		} else {
			stream = mb.Receive(w)
		}
		activeCnt[w] += dlv.scatter(w, stream, msgs, active)
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
				exchange() // drop in-flight messages from the failed epoch
				step = ckpt.step
			} else {
				// no checkpoint: full restart
				recovered = step
				gang.Run(initPhase)
				exchange()
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
		if collectRounds {
			cur := prov.Stats()
			d := cur.Sub(stPrev)
			stPrev = cur
			stRounds = append(stRounds, obs.StorageRound{
				Round: step, Hits: d.Hits, Misses: d.Misses, Evictions: d.Evictions,
				BlocksRead: d.BlocksRead, BytesRead: d.BytesRead,
			})
		}
		delivered := exchange()
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
