package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Gang is a persistent worker group: one long-lived goroutine per worker,
// started once and reused for every phase of a run. It is the cluster's only
// way to run per-worker phases. A superstep engine runs two phases (compute,
// demux) per round, and at thousands of rounds spawning goroutines per phase
// would make goroutine creation, closure allocation and scheduler churn the
// dominant steady-state allocation source on the engine hot path. A Gang
// instead hands phases over by a generation-counted condition variable: Run
// stores the phase function, bumps the generation, and wakes the workers;
// dispatching a round allocates nothing.
//
// fn runs concurrently on every worker, Run blocks until all complete, each
// worker's wall time is credited to the cluster's busy meter
// (straggler-scaled under a FaultPlan), and worker panics are aggregated into
// one re-panic naming every failed worker.
//
// Callers that reuse one closure across rounds (storing loop state in
// variables the closure captures) get a fully allocation-free dispatch; the
// happens-before edges of the internal mutex make writes published by the
// caller between Run calls visible to the workers, and worker writes visible
// to the caller when Run returns.
//
// A Gang must be Closed when the run ends so its goroutines exit; Run must
// not be called concurrently with itself or after Close.
type Gang struct {
	c *Cluster

	mu   sync.Mutex
	cond *sync.Cond // wakes workers on a new generation (or stop)
	done *sync.Cond // wakes Run when the last worker finishes

	fn      func(worker int)
	gen     uint64
	running int
	stopped bool

	// written by worker w only, read by Run after the done handoff
	panics  []any
	elapsed []float64
}

// NewGang starts one persistent goroutine per worker. Close releases them.
func (c *Cluster) NewGang() *Gang {
	g := &Gang{
		c:       c,
		panics:  make([]any, c.n),
		elapsed: make([]float64, c.n),
	}
	g.cond = sync.NewCond(&g.mu)
	g.done = sync.NewCond(&g.mu)
	for w := 0; w < c.n; w++ {
		// the spawn-time generation is passed in, not re-read under the lock:
		// a worker that acquires the lock only after Run has already bumped
		// g.gen would otherwise adopt the new generation as its baseline and
		// sleep through the round it is supposed to execute.
		go g.worker(w, g.gen)
	}
	return g
}

func (g *Gang) worker(w int, gen uint64) {
	g.mu.Lock()
	for {
		for g.gen == gen && !g.stopped {
			g.cond.Wait()
		}
		if g.stopped {
			g.mu.Unlock()
			return
		}
		gen = g.gen
		fn := g.fn
		g.mu.Unlock()

		//lint:allow wallclock busy-time metering feeds the obs skew metrics only; results never read it
		start := time.Now()
		//lint:allow hotalloc the recover frame captures only stack-scoped locals; escape analysis keeps it off the heap (the 0 allocs/round gate would catch a regression)
		func() {
			//lint:allow hotalloc deferred recover frame, same stack-scoped capture as the literal it runs in
			defer func() {
				//lint:allow wallclock busy-time metering feeds the obs skew metrics only; results never read it
				g.elapsed[w] = time.Since(start).Seconds()
				if r := recover(); r != nil {
					g.panics[w] = r
				}
			}()
			fn(w)
		}()

		g.mu.Lock()
		g.running--
		if g.running == 0 {
			g.done.Broadcast()
		}
	}
}

// Run executes fn concurrently on every persistent worker and blocks until
// all complete, crediting busy time and aggregating panics as described on
// Gang; the dispatch itself performs no allocation.
func (g *Gang) Run(fn func(worker int)) {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		//lint:allow panicpolicy running a closed gang is a programmer error at wiring time, like New on a zero-worker cluster
		panic("cluster: Gang.Run after Close")
	}
	g.fn = fn
	g.running = g.c.n
	g.gen++
	g.cond.Broadcast()
	for g.running > 0 {
		g.done.Wait()
	}
	g.mu.Unlock()

	g.c.mu.Lock()
	for w, sec := range g.elapsed {
		// a planned straggler is credited factor× its wall time, so the
		// slowdown shows up in busy-time skew exactly like a real slow node
		g.c.busy[w] += sec * g.c.faults.SlowFactor(w)
	}
	g.c.mu.Unlock()

	var failed []string
	for w, p := range g.panics {
		if p != nil {
			//lint:allow hotalloc crash-aggregation path: runs only after a worker panicked, never on a healthy round
			failed = append(failed, fmt.Sprintf("worker %d: %v", w, p))
			g.panics[w] = nil
		}
	}
	if len(failed) > 0 {
		//lint:allow hotalloc crash-aggregation path: the round is already dead, formatting the rethrow is free
		//lint:allow panicpolicy worker panics are crashes by design: Run aggregates and rethrows them so drivers (graphbench, tests) surface every failed worker at once
		panic(fmt.Sprintf("cluster: %d worker(s) panicked: %s", len(failed), strings.Join(failed, "; ")))
	}
}

// Close releases the gang's goroutines. Idempotent; pending Run calls must
// have returned.
func (g *Gang) Close() {
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}
