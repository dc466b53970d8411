// Package tthinker implements the think-like-a-task (T-thinker / G-thinker)
// computing model the paper presents as the answer to subgraph search: work
// is decomposed into independent subgraph tasks that backtrack depth-first
// WITHOUT materialising intermediate subgraph instances, on a shared task
// pool, with budget-based task splitting so that a straggler task (e.g. a
// dense community) is divided rather than serialising the run — the key
// G-thinker design points (Yan et al., ICDE'20 / VLDBJ'22). The pool is
// serve.Pool, the runtime that also serves G-thinkerQ's online queries: an
// offline run is one query whose task tree is the whole computation.
package tthinker

import (
	"runtime"
	"sync/atomic"

	"graphsys/internal/serve"
)

// Config controls a task engine run.
type Config struct {
	Workers int // default GOMAXPROCS
	// Budget is the number of ctx.Tick() calls a task may consume before
	// ShouldSplit reports true (G-thinker's timeout-based splitting, with
	// deterministic ticks standing in for wall-clock). 0 = never split.
	Budget int64
}

// Stats reports engine-level counters, the load-balancing evidence the
// G-thinker papers report.
type Stats struct {
	Tasks  int64 // tasks executed
	Splits int64 // tasks that elected to split (reported by app via Splitted)
	Ticks  int64 // total Tick() calls — the search-tree size across all tasks
	// MaxTaskTicks is the largest single task (in ticks): the granularity
	// bound that limits achievable parallelism. Budget-based splitting
	// exists to keep this near the budget.
	MaxTaskTicks int64
}

// Ctx is passed to every task execution.
type Ctx[T, R any] struct {
	tc     *serve.TaskContext[T]
	run    *run[R]
	ticks  int64
	budget int64
	local  R
	merged bool
}

// Spawn queues a new task of the same run.
func (c *Ctx[T, R]) Spawn(t T) { c.tc.Spawn(t) }

// Emit merges a partial result into the task's accumulator.
func (c *Ctx[T, R]) Emit(r R) {
	if !c.merged {
		c.local = r
		c.merged = true
		return
	}
	c.local = c.run.merge(c.local, r)
}

// Tick consumes one unit of task budget. Apps call it once per elementary
// expansion step.
func (c *Ctx[T, R]) Tick() { c.ticks++ }

// ShouldSplit reports whether the task has exhausted its budget and should
// spawn its remaining branches as subtasks instead of recursing.
func (c *Ctx[T, R]) ShouldSplit() bool {
	return c.budget > 0 && c.ticks >= c.budget
}

// Splitted records that the app split a task (for Stats).
func (c *Ctx[T, R]) Splitted() { c.run.splits.Add(1) }

// run is one Run's shared state: the app's merge and the Stats counters.
type run[R any] struct {
	merge   func(R, R) R
	tasks   atomic.Int64
	splits  atomic.Int64
	ticks   atomic.Int64
	maxTask atomic.Int64
}

// partial is one task's accumulator; ok is false when it emitted nothing,
// so merge never sees a value the app did not emit.
type partial[R any] struct {
	r  R
	ok bool
}

func (e *run[R]) fold(a, b partial[R]) partial[R] {
	if !b.ok {
		return a
	}
	if !a.ok {
		return b
	}
	return partial[R]{e.merge(a.r, b.r), true}
}

// Run executes the task tree rooted at roots: process is called for each
// task and may Spawn subtasks and Emit partial results, which are combined
// with merge (must be associative and commutative). It returns the merged
// result (zero if nothing was emitted) and engine stats. roots is not
// modified.
func Run[T, R any](roots []T, process func(ctx *Ctx[T, R], t T), merge func(R, R) R, cfg Config) (R, Stats) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &run[R]{merge: merge}
	exec := func(tc *serve.TaskContext[T], t T) partial[R] {
		ctx := &Ctx[T, R]{tc: tc, run: e, budget: cfg.Budget}
		process(ctx, t)
		e.tasks.Add(1)
		e.ticks.Add(ctx.ticks)
		for {
			cur := e.maxTask.Load()
			if ctx.ticks <= cur || e.maxTask.CompareAndSwap(cur, ctx.ticks) {
				break
			}
		}
		return partial[R]{ctx.local, ctx.merged}
	}
	// NewPool fails only for a nil func or an unknown policy, Submit only on
	// a closed pool or a queue limit, Wait only on cancel or deadline, and
	// Close never: none of them can happen here.
	pool, _ := serve.NewPool(serve.Options{Workers: cfg.Workers}, exec, e.fold)
	tk, _ := pool.Submit(serve.JobSpec[T, partial[R]]{Roots: append([]T(nil), roots...)})
	out, _ := tk.Wait()
	_ = pool.Close()
	return out.r, Stats{
		Tasks:        e.tasks.Load(),
		Splits:       e.splits.Load(),
		Ticks:        e.ticks.Load(),
		MaxTaskTicks: e.maxTask.Load(),
	}
}
