package quegel

import (
	"fmt"
	"sync"

	"graphsys/internal/graph"
	"graphsys/internal/pregel"
	"graphsys/internal/serve"
)

// Engine is the serving-tier face of Quegel: it implements
// serve.Engine[Query, Answer] over a serve.Batcher whose shared runs are
// AnswerBatched — every batch window pays one superstep sequence for all of
// its queries (superstep-sharing), and the serving tier supplies admission
// control, per-query deadlines, cancellation and batch-window policy on top.
type Engine struct {
	g *graph.Graph
	b *serve.Batcher[Query, Answer]

	mu      sync.Mutex
	stats   Stats // cumulative over all batch runs
	batches int
}

var _ serve.Engine[Query, Answer] = (*Engine)(nil)

// NewEngine starts a batched path-query engine over g. opts.Workers sizes the
// underlying vertex-centric engine's cluster; opts.Batch caps the batch
// window (0 = fold everything queued into the next run). Returns
// serve.ErrInvalidRequest for a nil graph or invalid policy.
func NewEngine(g *graph.Graph, opts serve.Options) (*Engine, error) {
	if g == nil {
		return nil, serve.ErrInvalidRequest
	}
	e := &Engine{g: g}
	cfg := pregel.Config{Workers: opts.Workers}
	b, err := serve.NewBatcher[Query, Answer](opts, func(batch []Query) ([]Answer, error) {
		ans, st, err := AnswerBatched(e.g, batch, cfg)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.stats.Supersteps += st.Supersteps
		e.stats.Messages += st.Messages
		e.batches++
		e.mu.Unlock()
		return ans, nil
	})
	if err != nil {
		return nil, err
	}
	e.b = b
	return e, nil
}

// Submit admits one point-to-point query. Endpoints outside the graph are
// rejected with serve.ErrInvalidRequest (typed, never a downstream panic);
// admission-control rejections return serve.ErrQueueFull; after Close,
// serve.ErrClosed.
func (e *Engine) Submit(req serve.Request[Query]) (*serve.Ticket[Answer], error) {
	n := graph.V(e.g.NumVertices())
	if req.Query.Src < 0 || req.Query.Src >= n || req.Query.Dst < 0 || req.Query.Dst >= n {
		return nil, fmt.Errorf("%w: query endpoints (%d,%d) outside graph of %d vertices",
			serve.ErrInvalidRequest, req.Query.Src, req.Query.Dst, n)
	}
	return e.b.Submit(req)
}

// Drain blocks until every admitted query has reached a terminal state.
func (e *Engine) Drain() { e.b.Drain() }

// Close drains pending queries, then stops the serving loop. Safe to call
// more than once.
func (e *Engine) Close() error { return e.b.Close() }

// Metrics returns the engine's admission and completion counters.
func (e *Engine) Metrics() serve.Metrics { return e.b.Metrics() }

// Stats returns the cumulative execution cost over all batch runs so far and
// the number of shared runs paid — the superstep-sharing ledger.
func (e *Engine) Stats() (Stats, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats, e.batches
}
