package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the task-parallel execution substrate behind the G-thinkerQ-shaped
// engines and the offline tthinker engine: each admitted query owns a queue
// of fine-grained tasks, a shared worker pool draws tasks across queries
// under the configured Policy, and tasks may spawn children
// (TaskContext.Spawn) so heavy queries decompose and interleave with light
// ones. Each draw is the policy pick that Simulate makes per work unit
// (sched.go), under the same round-robin cursor rule.
//
// T is the task payload, A the query's answer type. Task results are folded
// into the query's accumulator with merge, which must be commutative and
// associative (task completion order is scheduling-dependent); it runs under
// the pool lock, so executors should aggregate locally and return one
// partial per task.
type Pool[T, A any] struct {
	opts  Options
	clock Clock
	exec  func(tc *TaskContext[T], task T) A
	merge func(a, b A) A

	ctr    counters
	nextID atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	order   []*pjob[T, A] // live jobs in admission order
	rr      int           // round-robin cursor into order
	closing bool          // Submit rejects with ErrClosed
	closed  bool          // workers exit once jobs drain
	wg      sync.WaitGroup
}

// pjob is one admitted query's scheduling state. All fields are guarded by
// Pool.mu except the ticket's own atomics.
type pjob[T, A any] struct {
	ticket  *Ticket[A]
	tasks   []T   // LIFO stack of runnable tasks
	pending int   // tasks not yet fully completed (queued + executing)
	acc     A     // merged partial answer
	served  int64 // task draws so far (WeightedFair bookkeeping)
	cost    int64 // caller's service-demand estimate (0 = unknown)
	weight  int
	term    error // ErrCanceled/ErrDeadlineExceeded once noticed; nil while live
	done    bool  // retired from order; guards a second retire
	// aborted is the TaskContext's view of ticket, built once per query.
	aborted func() bool
}

func (j *pjob[T, A]) ready() bool         { return len(j.tasks) > 0 }
func (j *pjob[T, A]) share() (int64, int) { return j.served, j.weight }

// remaining is the ShortestRemaining key: the caller's estimate net of
// service received when one was given, the outstanding task count otherwise.
func (j *pjob[T, A]) remaining() int64 {
	if j.cost > 0 {
		if r := j.cost - j.served; r > 0 {
			return r
		}
		return 1 // estimate exhausted but work outstanding: nearly done
	}
	return int64(j.pending)
}

// JobSpec describes one query submitted to a Pool: its root tasks, the
// answer accumulator's initial value, and the serving metadata (deadline,
// weight, cost estimate) the scheduler acts on.
type JobSpec[T, A any] struct {
	// Roots are the query's initial tasks; the pool takes ownership of the
	// slice. An empty Roots completes immediately with Initial.
	Roots []T
	// Initial seeds the query's answer accumulator.
	Initial A
	// Deadline, Weight, Cost: see Request.
	Deadline time.Duration
	Weight   int
	Cost     int64
}

// NewPool starts a pool with opts.Workers workers. exec runs one task and
// returns its partial answer (spawning children via tc); merge folds
// partials into the query accumulator. Returns ErrInvalidRequest for a nil
// exec/merge or an unknown policy.
func NewPool[T, A any](opts Options, exec func(tc *TaskContext[T], task T) A, merge func(a, b A) A) (*Pool[T, A], error) {
	if exec == nil || merge == nil {
		return nil, ErrInvalidRequest
	}
	if !opts.Policy.valid() {
		return nil, ErrInvalidRequest
	}
	p := &Pool[T, A]{
		opts:  opts,
		clock: opts.clock(),
		exec:  exec,
		merge: merge,
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < opts.workers(); w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p, nil
}

// TaskContext is the executor's view of one task: spawn children, observe
// abort (cancel or deadline expiry) to short-circuit expensive loops. It is
// valid only until the executor returns; the worker reuses it.
type TaskContext[T any] struct {
	aborted func() bool
	spawned []T
}

// Spawn queues child tasks for the same query.
func (tc *TaskContext[T]) Spawn(tasks ...T) { tc.spawned = append(tc.spawned, tasks...) }

// Aborted reports whether the query was canceled or its deadline passed;
// executors should return early (their partial result is still merged).
func (tc *TaskContext[T]) Aborted() bool { return tc.aborted() }

// Submit admits one query. It returns ErrClosed after Close has begun and
// ErrQueueFull when Options.QueueLimit queries are already in flight (the
// rejection is metered). Empty-root queries complete immediately.
func (p *Pool[T, A]) Submit(spec JobSpec[T, A]) (*Ticket[A], error) {
	p.ctr.submitted.Add(1)
	now := p.clock()
	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if p.opts.QueueLimit > 0 && len(p.order) >= p.opts.QueueLimit {
		p.ctr.rejected.Add(1)
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	id := p.nextID.Add(1)
	tk := newTicket[A](id, now, p.opts.deadlineFor(spec.Deadline), weightFor(spec.Weight))
	p.ctr.admitted.Add(1)
	if len(spec.Roots) == 0 {
		p.ctr.completed.Add(1)
		tk.complete(spec.Initial, nil, now)
		p.mu.Unlock()
		return tk, nil
	}
	p.order = append(p.order, &pjob[T, A]{
		ticket: tk, tasks: spec.Roots, pending: len(spec.Roots),
		acc: spec.Initial, cost: spec.Cost, weight: weightFor(spec.Weight),
		aborted: func() bool { return tk.Canceled() || tk.expiredAt(p.clock()) },
	})
	p.cond.Broadcast()
	p.mu.Unlock()
	return tk, nil
}

// Drain blocks until every admitted query has reached a terminal state.
func (p *Pool[T, A]) Drain() {
	p.mu.Lock()
	for len(p.order) > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close drains the pool, then stops the workers. Submit during or after
// Close returns ErrClosed. Safe to call more than once.
func (p *Pool[T, A]) Close() error {
	p.mu.Lock()
	p.closing = true
	for len(p.order) > 0 {
		p.cond.Wait()
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

// Metrics returns a snapshot of the admission and completion counters.
func (p *Pool[T, A]) Metrics() Metrics { return p.ctr.snapshot() }

// worker runs tasks with one TaskContext, pointed at each task's query in
// turn, so a task costs no allocation of the pool's own.
func (p *Pool[T, A]) worker() {
	defer p.wg.Done()
	tc := &TaskContext[T]{}
	for {
		j, task, ok := p.take()
		if !ok {
			return
		}
		tc.aborted = j.aborted
		partial := p.exec(tc, task)
		p.finishTask(j, partial, tc.spawned)
		clear(tc.spawned) // finishTask copied the children; release them for GC
		tc.spawned = tc.spawned[:0]
	}
}

// take draws the next task under the policy, reaping canceled/expired
// queries on the way. Scheduling points (draws and task completions) are
// where cancellation and expiry are observed.
func (p *Pool[T, A]) take() (*pjob[T, A], T, bool) {
	var zero T
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		p.reapLocked()
		if j := p.pickLocked(); j != nil {
			n := len(j.tasks) - 1
			task := j.tasks[n]
			j.tasks[n] = zero // release the reference for GC
			j.tasks = j.tasks[:n]
			j.served++
			return j, task, true
		}
		if p.closed && len(p.order) == 0 {
			return nil, zero, false
		}
		p.cond.Wait()
	}
}

// reapLocked terminates queries that were canceled or whose deadline passed:
// queued tasks are dropped; in-flight tasks finish and merge their partials.
func (p *Pool[T, A]) reapLocked() {
	now := p.clock()
	var done []*pjob[T, A] // finished after the scan: finishing mutates p.order
	for _, j := range p.order {
		if j.term == nil {
			if j.ticket.Canceled() {
				j.term = ErrCanceled
			} else if j.ticket.expiredAt(now) {
				j.term = ErrDeadlineExceeded
			}
		}
		if j.term != nil && len(j.tasks) > 0 {
			j.pending -= len(j.tasks)
			j.tasks = nil
		}
		if j.term != nil && j.pending == 0 {
			//lint:allow hotalloc termination path: grows only when a query was canceled or blew its deadline, not per task draw
			done = append(done, j)
		}
	}
	for _, j := range done {
		p.finishJobLocked(j)
	}
}

// pickLocked selects the next query to draw a task from under the policy,
// or nil when no query has a runnable task.
func (p *Pool[T, A]) pickLocked() *pjob[T, A] {
	if i := pick(p.opts.Policy, p.order, &p.rr); i >= 0 {
		return p.order[i]
	}
	return nil
}

// finishTask merges one completed task's partial answer, enqueues its
// children, and completes the query when its last task retires.
func (p *Pool[T, A]) finishTask(j *pjob[T, A], partial A, children []T) {
	p.mu.Lock()
	j.acc = p.merge(j.acc, partial)
	j.pending--
	if j.term == nil {
		if j.ticket.Canceled() {
			j.term = ErrCanceled
		} else if j.ticket.expiredAt(p.clock()) {
			j.term = ErrDeadlineExceeded
		}
	}
	if j.term == nil && len(children) > 0 {
		j.tasks = append(j.tasks, children...)
		j.pending += len(children)
		p.cond.Broadcast()
	}
	if j.pending == 0 && len(j.tasks) == 0 {
		p.finishJobLocked(j)
	}
	p.mu.Unlock()
}

// finishJobLocked publishes the query's terminal state and retires it from
// the scheduler.
func (p *Pool[T, A]) finishJobLocked(j *pjob[T, A]) {
	if j.done {
		return
	}
	j.done = true
	for i, o := range p.order {
		if o == j {
			p.order = remove(p.order, i, &p.rr)
			break
		}
	}
	switch j.term {
	case nil:
		p.ctr.completed.Add(1)
	case ErrCanceled:
		p.ctr.canceled.Add(1)
	case ErrDeadlineExceeded:
		p.ctr.expired.Add(1)
	}
	j.ticket.complete(j.acc, j.term, p.clock())
	p.cond.Broadcast()
}
