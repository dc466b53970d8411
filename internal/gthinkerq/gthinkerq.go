// Package gthinkerq implements G-thinkerQ's contribution: interactive ONLINE
// subgraph querying, where users continually submit subgraph queries with
// different contents against a loaded big graph, and a shared task-based
// engine serves them concurrently. Tasks are kept in PER-QUERY queues and
// workers draw from the queries under a pluggable scheduling policy
// (round-robin by default), so a long-running query cannot monopolise the
// pool: short queries interleave fairly and keep low latency — the property
// the tab1-online experiment measures against sequential (offline,
// one-query-at-a-time) execution.
//
// The engine lives behind the unified serving tier: Engine implements
// serve.Engine[*graph.Graph, int64] over a serve.Pool, inheriting scheduling
// policies, admission control (load shedding with typed ErrQueueFull),
// per-query deadlines and cancellation. Server and Query are the original
// pre-serve API, kept as thin deprecated wrappers.
package gthinkerq

import (
	"sync/atomic"
	"time"

	"graphsys/internal/graph"
	"graphsys/internal/match"
	"graphsys/internal/serve"
)

// qtask is one unit of matching work: extend prefix against plan. Tasks carry
// their query's split depth (captured at submission) and a live match counter
// so partial progress stays observable while the query runs.
type qtask struct {
	plan   *match.Plan
	prefix []graph.V
	sd     int
	live   *atomic.Int64
}

// Engine is the serving-tier subgraph-query engine: it implements
// serve.Engine[*graph.Graph, int64] (submit a pattern graph, receive a match
// count) over a shared task pool. Construct it with serve.Options to pick the
// scheduling policy, admission bound, default deadline and clock.
type Engine struct {
	g          *graph.Graph
	pool       *serve.Pool[qtask, int64]
	splitDepth atomic.Int32
}

var _ serve.Engine[*graph.Graph, int64] = (*Engine)(nil)

// NewEngine starts a query engine over the data graph g. Returns
// serve.ErrInvalidRequest for a nil graph or an invalid policy in opts.
func NewEngine(g *graph.Graph, opts serve.Options) (*Engine, error) {
	if g == nil {
		return nil, serve.ErrInvalidRequest
	}
	e := &Engine{g: g}
	e.splitDepth.Store(2)
	pool, err := serve.NewPool[qtask, int64](opts, e.exec, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	e.pool = pool
	return e, nil
}

// SetSplitDepth sets the task granularity for subsequently submitted queries:
// prefixes shorter than depth spawn one task per extension (enabling
// cross-query interleaving); deeper prefixes run DFS inline. The default is 2.
func (e *Engine) SetSplitDepth(depth int) {
	if depth < 0 {
		depth = 0
	}
	e.splitDepth.Store(int32(depth))
}

// Submit admits one subgraph query (counting matches of req.Query) and
// returns its ticket without blocking on execution. A nil pattern is rejected
// with serve.ErrInvalidRequest; admission-control rejections return
// serve.ErrQueueFull; after Close, serve.ErrClosed.
func (e *Engine) Submit(req serve.Request[*graph.Graph]) (*serve.Ticket[int64], error) {
	tk, _, err := e.submitLive(req)
	return tk, err
}

// submitLive is Submit plus the query's live partial-count cell (the
// deprecated Query.Count hook).
func (e *Engine) submitLive(req serve.Request[*graph.Graph]) (*serve.Ticket[int64], *atomic.Int64, error) {
	if req.Query == nil {
		return nil, nil, serve.ErrInvalidRequest
	}
	live := &atomic.Int64{}
	spec := serve.JobSpec[qtask, int64]{
		Deadline: req.Deadline,
		Weight:   req.Weight,
		Cost:     req.Cost,
	}
	if req.Query.NumVertices() > 0 {
		plan := match.OptimizedPlan(req.Query)
		// one root task per feasible first-vertex binding
		sd := int(e.splitDepth.Load())
		for _, r := range plan.CandidatesForPrefix(e.g, nil, nil) {
			spec.Roots = append(spec.Roots, qtask{plan: plan, prefix: []graph.V{r}, sd: sd, live: live})
		}
	}
	tk, err := e.pool.Submit(spec)
	if err != nil {
		return nil, nil, err
	}
	return tk, live, nil
}

// Drain blocks until every admitted query has reached a terminal state.
func (e *Engine) Drain() { e.pool.Drain() }

// Close drains in-flight queries, then stops the workers. Submit during or
// after Close returns serve.ErrClosed. Safe to call more than once.
func (e *Engine) Close() error { return e.pool.Close() }

// Metrics returns the engine's admission and completion counters.
func (e *Engine) Metrics() serve.Metrics { return e.pool.Metrics() }

// exec runs one matching task: complete prefixes count a match, shallow
// prefixes spawn one child per candidate extension, deep prefixes run DFS
// inline (checking for abort between roots so canceled or expired queries
// release their worker promptly).
func (e *Engine) exec(tc *serve.TaskContext[qtask], t qtask) int64 {
	if tc.Aborted() {
		return 0
	}
	k := len(t.plan.Order)
	if len(t.prefix) == k {
		t.live.Add(1)
		return 1
	}
	cands := t.plan.CandidatesForPrefix(e.g, t.prefix, nil)
	if len(t.prefix) < t.sd {
		// fine-grained: spawn one task per extension so other queries' tasks
		// interleave on the shared pool
		for _, c := range cands {
			child := append(append(make([]graph.V, 0, len(t.prefix)+1), t.prefix...), c)
			tc.Spawn(qtask{plan: t.plan, prefix: child, sd: t.sd, live: t.live})
		}
		return 0
	}
	// coarse: DFS inline without further task creation
	var count int64
	var dfs func(prefix []graph.V)
	dfs = func(prefix []graph.V) {
		if len(prefix) == k {
			count++
			t.live.Add(1)
			return
		}
		for _, c := range t.plan.CandidatesForPrefix(e.g, prefix, nil) {
			dfs(append(prefix, c))
		}
	}
	for _, c := range cands {
		if tc.Aborted() {
			break
		}
		dfs(append(append(make([]graph.V, 0, k), t.prefix...), c))
	}
	return count
}

// Query is a handle to a query submitted through the deprecated Server API.
//
// Deprecated: use Engine.Submit, which returns a *serve.Ticket[int64] with
// typed terminal errors.
type Query struct {
	ID      int64
	Pattern *graph.Graph
	tk      *serve.Ticket[int64]
	live    *atomic.Int64
}

// Cancel marks the query cancelled: the engine stops working on it at the
// next scheduling point and Wait returns the partial count.
func (q *Query) Cancel() { q.tk.Cancel() }

// Cancelled reports whether Cancel was called.
func (q *Query) Cancelled() bool { return q.tk.Canceled() }

// Wait blocks until the query completes and returns the match count (partial
// if the query was cancelled).
func (q *Query) Wait() int64 {
	n, _ := q.tk.Wait()
	return n
}

// Latency returns the submit-to-completion latency (valid after Wait).
func (q *Query) Latency() time.Duration { return q.tk.Latency() }

// Count returns the current (possibly partial) match count.
func (q *Query) Count() int64 { return q.live.Load() }

// Server is the original shared-pool online query server API.
//
// Deprecated: use NewEngine with serve.Options — it adds scheduling policies,
// admission control, deadlines and typed errors. Server remains as a thin
// wrapper over Engine with the historical round-robin behaviour.
type Server struct {
	eng *Engine
	// SplitDepth controls task granularity: prefixes shorter than SplitDepth
	// spawn one task per extension (enabling interleaving); deeper prefixes
	// run DFS inline. Set it before the first Submit.
	SplitDepth int
	clock      atomic.Pointer[serve.Clock]
}

// NewServer starts a query server with the given worker pool size and the
// round-robin policy.
func NewServer(g *graph.Graph, workers int) *Server {
	s := &Server{SplitDepth: 2}
	wall := serve.WallClock()
	s.clock.Store(&wall)
	if g == nil {
		// the legacy constructor has no error return; an empty graph keeps
		// every query well-defined (zero matches) instead of panicking
		g = graph.FromEdges(0, nil)
	}
	eng, _ := NewEngine(g, serve.Options{
		Workers: workers,
		Policy:  serve.RoundRobin,
		Clock:   func() time.Time { return (*s.clock.Load())() },
	})
	s.eng = eng
	return s
}

// SetClock replaces the timestamp source used for Query.Latency. Call it
// before the first Submit; a nil clock resets to the wall clock.
func (s *Server) SetClock(now func() time.Time) {
	var c serve.Clock
	if now == nil {
		c = serve.WallClock()
	} else {
		c = serve.Clock(now)
	}
	s.clock.Store(&c)
}

// Close shuts the server down after all in-flight queries complete. Submit
// must not be called after (or concurrently with) Close.
func (s *Server) Close() { _ = s.eng.Close() }

// Submit enqueues a subgraph query (counting matches of pattern) and returns
// immediately. The wrapper has no admission bound, so the only rejection is a
// nil pattern, which returns an already-completed zero-count Query.
func (s *Server) Submit(pattern *graph.Graph) *Query {
	s.eng.SetSplitDepth(s.SplitDepth)
	tk, live, err := s.eng.submitLive(serve.Request[*graph.Graph]{Query: pattern})
	if err != nil {
		// preserve the no-error legacy shape: surface a terminal zero-count query
		done := &atomic.Int64{}
		zt := serve.CompletedTicket[int64](0, err)
		return &Query{Pattern: pattern, tk: zt, live: done}
	}
	return &Query{ID: tk.ID(), Pattern: pattern, tk: tk, live: live}
}
