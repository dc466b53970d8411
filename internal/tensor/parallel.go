// Parallel execution substrate for the compute kernels: a lazily started
// worker pool sized by GOMAXPROCS, a process-wide parallelism knob, and
// deterministic range-splitting helpers.
//
// Determinism contract: every parallel kernel in this package (and the SpMM
// kernels in internal/gnn built on these helpers) partitions its OUTPUT rows
// into disjoint contiguous blocks, one owner goroutine per block, and each
// element is accumulated in exactly the same order as the serial kernel.
// There are no atomics and no cross-goroutine reductions, so results are
// bitwise identical at any parallelism level — which is what lets the
// gnndist crash-recovery tests keep asserting EXACT loss equality with
// parallel kernels enabled.
package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SerialWorkThreshold is the number of fused multiply-adds below which
// kernels stay serial: goroutine handoff costs ~1µs, so small operands (the
// common minibatch shapes) must not pay for the pool.
const SerialWorkThreshold = 1 << 16

// parallelism is the requested worker count; 0 means GOMAXPROCS.
var parallelism atomic.Int64

// SetParallelism sets the number of goroutines the compute kernels may use.
// n <= 0 restores the default (GOMAXPROCS at call time). The setting is
// process-global: kernels are bitwise-deterministic at any level, so changing
// it mid-run affects speed, never results.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the resolved kernel worker count (always >= 1).
func Parallelism() int {
	if p := parallelism.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// workerPool is the shared kernel pool. Workers block on the unbuffered
// channel; ParallelDo falls back to running a task inline when every worker
// is busy, which both bounds concurrency and makes nested kernel calls
// deadlock-free.
var workerPool struct {
	once sync.Once
	ch   chan func()
}

func startPool() {
	workerPool.ch = make(chan func())
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for fn := range workerPool.ch {
				fn()
			}
		}()
	}
}

// ParallelDo runs the given closures concurrently on the kernel pool and
// waits for all of them. The last closure runs on the calling goroutine;
// closures that find every pool worker busy run inline on the caller too.
// Callers are responsible for making the closures write to disjoint state.
func ParallelDo(fns []func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	workerPool.once.Do(startPool)
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[:len(fns)-1] {
		task := func() {
			defer wg.Done()
			fn()
		}
		select {
		case workerPool.ch <- task:
		default:
			task()
		}
	}
	fns[len(fns)-1]()
	wg.Wait()
}

// ParallelChunks splits [0, n) into contiguous chunks of ceil(n/parts)
// indices (at most parts of them, the last possibly shorter) and runs
// fn(c, lo, hi) on each through ParallelDo, where c numbers the chunks from 0
// in range order. It is the root split of the task engines (match, mining):
// the caller's worker count fixes the chunks, so per-chunk outputs
// concatenated in c order do not depend on how many pool workers were free.
// fn must treat its [lo, hi) block and its chunk index as exclusively owned.
func ParallelChunks(n, parts int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	parts = max(parts, 1)
	chunk := (n + parts - 1) / parts
	fns := make([]func(), 0, parts)
	for lo := 0; lo < n; lo += chunk {
		c, lo, hi := lo/chunk, lo, min(lo+chunk, n)
		fns = append(fns, func() { fn(c, lo, hi) })
	}
	ParallelDo(fns)
}

// ParallelFor splits [0, n) into at most Parallelism() contiguous chunks and
// runs fn on each concurrently. work is the total fused-multiply-add count;
// below SerialWorkThreshold (or at parallelism 1) fn runs once, inline, over
// the whole range. fn must treat its [lo, hi) block as exclusively owned.
func ParallelFor(n int, work int64, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Parallelism()
	if p <= 1 || n == 1 || work < SerialWorkThreshold {
		fn(0, n)
		return
	}
	if p > n {
		p = n
	}
	chunk := (n + p - 1) / p
	fns := make([]func(), 0, p)
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, lo+chunk
		if hi > n {
			hi = n
		}
		fns = append(fns, func() { fn(lo, hi) })
	}
	ParallelDo(fns)
}
