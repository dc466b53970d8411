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
// per-query deadlines and cancellation.
package gthinkerq

import (
	"graphsys/internal/graph"
	"graphsys/internal/match"
	"graphsys/internal/serve"
)

// splitDepth is the task granularity: prefixes shorter than splitDepth spawn
// one task per extension (so other queries' tasks interleave on the shared
// pool); deeper prefixes run DFS inline.
const splitDepth = 2

// qtask is one unit of matching work: extend prefix against plan.
type qtask struct {
	plan   *match.Plan
	prefix []graph.V
}

// Engine is the serving-tier subgraph-query engine: it implements
// serve.Engine[*graph.Graph, int64] (submit a pattern graph, receive a match
// count) over a shared task pool. Construct it with serve.Options to pick the
// scheduling policy, admission bound, default deadline and clock.
type Engine struct {
	g    *graph.Graph
	pool *serve.Pool[qtask, int64]
}

var _ serve.Engine[*graph.Graph, int64] = (*Engine)(nil)

// NewEngine starts a query engine over the data graph g. Returns
// serve.ErrInvalidRequest for a nil graph or an invalid policy in opts.
func NewEngine(g *graph.Graph, opts serve.Options) (*Engine, error) {
	if g == nil {
		return nil, serve.ErrInvalidRequest
	}
	e := &Engine{g: g}
	pool, err := serve.NewPool[qtask, int64](opts, e.exec, func(a, b int64) int64 { return a + b })
	if err != nil {
		return nil, err
	}
	e.pool = pool
	return e, nil
}

// Submit admits one subgraph query (counting matches of req.Query) and
// returns its ticket without blocking on execution. A nil pattern is rejected
// with serve.ErrInvalidRequest; admission-control rejections return
// serve.ErrQueueFull; after Close, serve.ErrClosed.
func (e *Engine) Submit(req serve.Request[*graph.Graph]) (*serve.Ticket[int64], error) {
	if req.Query == nil {
		return nil, serve.ErrInvalidRequest
	}
	spec := serve.JobSpec[qtask, int64]{
		Deadline: req.Deadline,
		Weight:   req.Weight,
		Cost:     req.Cost,
	}
	if req.Query.NumVertices() > 0 {
		plan := match.OptimizedPlan(req.Query)
		// one root task per feasible first-vertex binding
		roots, _ := plan.CandidatesForPrefix(e.g, nil, nil)
		for _, r := range roots {
			spec.Roots = append(spec.Roots, qtask{plan: plan, prefix: []graph.V{r}})
		}
	}
	return e.pool.Submit(spec)
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
		return 1
	}
	cands, _ := t.plan.CandidatesForPrefix(e.g, t.prefix, nil)
	if len(t.prefix) < splitDepth {
		// fine-grained: spawn one task per extension so other queries' tasks
		// interleave on the shared pool
		for _, c := range cands {
			child := append(append(make([]graph.V, 0, len(t.prefix)+1), t.prefix...), c)
			tc.Spawn(qtask{plan: t.plan, prefix: child})
		}
		return 0
	}
	// coarse: DFS inline, over one prefix and one candidate buffer per depth
	var count int64
	bufs := make([][]graph.V, k)
	var dfs func(prefix []graph.V)
	dfs = func(prefix []graph.V) {
		d := len(prefix)
		if d == k {
			count++
			return
		}
		bufs[d], _ = t.plan.CandidatesForPrefix(e.g, prefix, bufs[d][:0])
		for _, c := range bufs[d] {
			dfs(append(prefix, c))
		}
	}
	prefix := append(make([]graph.V, 0, k), t.prefix...)
	for _, c := range cands {
		if tc.Aborted() {
			break
		}
		dfs(append(prefix, c))
	}
	return count
}
