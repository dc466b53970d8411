// Package serve is the unified serving tier over the online query engines
// (G-thinkerQ's shared task pool, Quegel's superstep-shared batches): one
// Engine interface — submit with a per-query deadline, cancel, drain, close —
// behind which both engines run, with pluggable scheduling policies and
// admission control in front of them.
//
// The survey's online-analytics column (Quegel §7, G-thinkerQ) describes
// systems whose unit of work is a latency-bound interactive query against a
// loaded big graph, not a batch job; this package is where that serving
// contract lives, mirroring how cluster.RunOptions centralises the batch
// runtime's cross-cutting configuration:
//
//	eng := gthinkerq.NewEngine(g, serve.Options{
//	    Workers:    8,
//	    Policy:     serve.ShortestRemaining,
//	    QueueLimit: 256,                    // load-shed beyond 256 in-flight queries
//	    Deadline:   200 * time.Millisecond, // default per-query SLO
//	})
//	t, err := eng.Submit(serve.Request[*graph.Graph]{Query: pattern})
//
// Exported entry points return typed errors (ErrQueueFull, ErrClosed,
// ErrDeadlineExceeded, ErrCanceled) — never panic, never drop a query
// silently; every rejection is metered in Metrics.
//
// Two execution substrates implement the scheduling behind Engine: Pool (a
// shared worker pool drawing tasks from per-query queues — the G-thinkerQ
// shape) and Batcher (a serving loop answering admitted queries in shared
// batches — the Quegel shape). The package also carries the measurement
// half of the serving tier: an open-loop load generator (loadgen.go) and a
// deterministic discrete-event simulator (sim.go) that turn the policies
// into the p50/p99-vs-offered-load curves of the serve-sweep experiment.
package serve

import (
	"errors"
	"sync/atomic"
	"time"
)

// Typed serving errors. Submit and Ticket.Wait return exactly these (wrapped
// with context where useful), so callers can errors.Is on the condition
// instead of string-matching.
var (
	// ErrClosed is returned by Submit after Close has begun.
	ErrClosed = errors.New("serve: engine closed")
	// ErrQueueFull is returned by Submit when admission control sheds the
	// query: the engine already holds Options.QueueLimit in-flight queries.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadlineExceeded is returned by Wait when the query's deadline
	// expired before it completed; the partial result is still returned.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
	// ErrCanceled is returned by Wait when the query was canceled; the
	// partial result is still returned.
	ErrCanceled = errors.New("serve: query canceled")
	// ErrInvalidRequest is returned by Submit for malformed requests
	// (e.g. a nil query payload).
	ErrInvalidRequest = errors.New("serve: invalid request")
)

// Request is one query submission. Q is the engine's query payload type
// (a pattern graph for gthinkerq, a src/dst pair for quegel).
type Request[Q any] struct {
	// Query is the engine-specific payload.
	Query Q
	// Deadline, if > 0, bounds the query's total latency (queueing +
	// service): past it the engine stops working on the query and Wait
	// returns ErrDeadlineExceeded. 0 falls back to Options.Deadline.
	Deadline time.Duration
	// Weight biases the WeightedFair policy; values < 1 are treated as 1.
	Weight int
	// Cost is the caller's estimate of the query's service demand in
	// engine work units (0 = unknown). The ShortestRemaining policy in the
	// Batcher and the simulator order by it; the Pool refines it online
	// from outstanding task counts.
	Cost int64
}

// Engine is the serving-tier contract both online engines implement.
//
// Submit never blocks on query execution: it either admits the request and
// returns a Ticket, or rejects it with a typed error (ErrQueueFull under
// load shedding, ErrClosed after shutdown, ErrInvalidRequest). Drain blocks
// until every admitted query has completed. Close drains, then releases the
// engine's resources; Submit after Close returns ErrClosed.
type Engine[Q, A any] interface {
	Submit(req Request[Q]) (*Ticket[A], error)
	Drain()
	Close() error
	Metrics() Metrics
}

// Metrics are the admission-control and completion counters every Engine
// meters; rejections are counted, never silent.
type Metrics struct {
	Submitted int64 // Submit calls that were not ErrInvalidRequest
	Admitted  int64 // accepted into the engine
	Rejected  int64 // shed with ErrQueueFull
	Completed int64 // finished with a full result
	Canceled  int64 // finished early via Ticket.Cancel
	Expired   int64 // finished early via deadline expiry
	Failed    int64 // finished with an engine execution error
}

// counters is the internal atomic mirror of Metrics, shared by Pool and
// Batcher.
type counters struct {
	submitted, admitted, rejected        atomic.Int64
	completed, canceled, expired, failed atomic.Int64
}

func (c *counters) snapshot() Metrics {
	return Metrics{
		Submitted: c.submitted.Load(),
		Admitted:  c.admitted.Load(),
		Rejected:  c.rejected.Load(),
		Completed: c.completed.Load(),
		Canceled:  c.canceled.Load(),
		Expired:   c.expired.Load(),
		Failed:    c.failed.Load(),
	}
}

// Options is the cross-cutting serving configuration shared by every engine
// behind the serve.Engine interface — the serving-tier analogue of
// cluster.RunOptions.
type Options struct {
	// Workers sizes the engine's service concurrency: worker goroutines
	// for the Pool, the engine's cluster width for batch engines.
	// 0 defaults to 4.
	Workers int
	// Policy selects the scheduling discipline across in-flight queries
	// (default RoundRobin — the G-thinkerQ baseline).
	Policy Policy
	// QueueLimit bounds the number of concurrently admitted (in-flight)
	// queries; Submit sheds beyond it with ErrQueueFull. 0 = unbounded.
	QueueLimit int
	// Batch bounds how many queries a batch engine folds into one shared
	// run (0 = all currently queued). Ignored by the Pool.
	Batch int
	// Deadline is the default per-query latency bound applied when
	// Request.Deadline is 0 (0 = none).
	Deadline time.Duration
	// Clock stamps submission/completion for Ticket.Latency and drives
	// deadline expiry. nil defaults to WallClock(); tests and the load
	// generator inject a LogicalClock to keep latency math deterministic.
	Clock Clock
}

// workers resolves the worker-count default.
func (o Options) workers() int {
	if o.Workers <= 0 {
		return 4
	}
	return o.Workers
}

// clock resolves the clock default.
func (o Options) clock() Clock {
	if o.Clock == nil {
		return WallClock()
	}
	return o.Clock
}

// deadlineFor resolves a request's effective deadline.
func (o Options) deadlineFor(req time.Duration) time.Duration {
	if req > 0 {
		return req
	}
	return o.Deadline
}

// weightFor clamps a request weight.
func weightFor(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// Ticket is the handle to one admitted query. The zero Ticket is not valid;
// engines mint tickets on Submit.
type Ticket[A any] struct {
	id        int64
	submitted time.Time
	deadline  time.Time // zero = none
	weight    int

	canceled atomic.Bool
	done     chan struct{}
	// result/err/finished are written exactly once before done is closed;
	// the channel close is the publication barrier.
	result   A
	err      error
	finished time.Time
}

func newTicket[A any](id int64, now time.Time, deadline time.Duration, weight int) *Ticket[A] {
	t := &Ticket[A]{id: id, submitted: now, weight: weight, done: make(chan struct{})}
	if deadline > 0 {
		t.deadline = now.Add(deadline)
	}
	return t
}

// CompletedTicket mints an already-terminal ticket carrying result and err —
// for wrappers that must surface a rejection through an API with no error
// return, and for tests. Its latency is zero and it has no engine id.
func CompletedTicket[A any](result A, err error) *Ticket[A] {
	t := &Ticket[A]{done: make(chan struct{})}
	t.complete(result, err, time.Time{})
	return t
}

// ID returns the engine-assigned query id (unique per engine, ascending in
// admission order).
func (t *Ticket[A]) ID() int64 { return t.id }

// Cancel requests cancellation: the engine stops working on the query as
// soon as it notices, and Wait returns the partial result with ErrCanceled.
// Canceling a completed query is a no-op. Safe to call concurrently.
func (t *Ticket[A]) Cancel() { t.canceled.Store(true) }

// Canceled reports whether Cancel was called.
func (t *Ticket[A]) Canceled() bool { return t.canceled.Load() }

// Done returns a channel closed when the query reaches a terminal state
// (completed, canceled, or expired).
func (t *Ticket[A]) Done() <-chan struct{} { return t.done }

// Wait blocks until the query reaches a terminal state and returns the
// result. The error is nil on completion, ErrCanceled or
// ErrDeadlineExceeded on early termination (the result then holds whatever
// partial answer the engine accumulated), or the engine's execution error.
func (t *Ticket[A]) Wait() (A, error) {
	<-t.done
	return t.result, t.err
}

// Err returns the terminal error without blocking; nil while in flight or
// after successful completion.
func (t *Ticket[A]) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

// Latency returns the submit-to-completion latency; valid after the ticket
// is done (it returns 0 while in flight).
func (t *Ticket[A]) Latency() time.Duration {
	select {
	case <-t.done:
		return t.finished.Sub(t.submitted)
	default:
		return 0
	}
}

// expired reports whether the ticket's deadline has passed at time now.
func (t *Ticket[A]) expiredAt(now time.Time) bool {
	return !t.deadline.IsZero() && now.After(t.deadline)
}

// complete publishes the terminal state. Must be called exactly once.
func (t *Ticket[A]) complete(result A, err error, now time.Time) {
	t.result = result
	t.err = err
	t.finished = now
	close(t.done)
}
