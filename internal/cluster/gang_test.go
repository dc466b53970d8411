package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestGangRunsEveryWorker: every worker executes every phase exactly once,
// across many reused rounds.
func TestGangRunsEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := New(workers)
			g := c.NewGang()
			defer g.Close()
			counts := make([]int64, workers)
			const rounds = 50
			phase := func(w int) { counts[w]++ }
			for r := 0; r < rounds; r++ {
				g.Run(phase)
			}
			for w, n := range counts {
				if n != rounds {
					t.Fatalf("worker %d ran %d phases, want %d", w, n, rounds)
				}
			}
		})
	}
}

// TestGangPublishesWrites: worker writes from round r must be visible to the
// caller after Run returns and to all workers in round r+1 (the mutex
// handoff's happens-before edges).
func TestGangPublishesWrites(t *testing.T) {
	const workers = 4
	c := New(workers)
	g := c.NewGang()
	defer g.Close()
	shared := make([]int, workers)
	sum := 0
	writePhase := func(w int) { shared[w] = w + 1 }
	readPhase := func(w int) {
		if w == 0 {
			for _, v := range shared {
				sum += v
			}
		}
	}
	g.Run(writePhase)
	g.Run(readPhase)
	if sum != 1+2+3+4 {
		t.Fatalf("round-(r+1) worker saw stale writes: sum = %d", sum)
	}
}

// TestGangAggregatesPanics: multiple worker panics surface as one aggregated
// panic naming every failed worker, and the gang stays usable for the next
// round.
func TestGangAggregatesPanics(t *testing.T) {
	c := New(4)
	g := c.NewGang()
	defer g.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected aggregated panic")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "worker 1") || !strings.Contains(msg, "worker 3") {
				t.Fatalf("panic does not name both failed workers: %s", msg)
			}
			if !strings.Contains(msg, "2 worker(s) panicked") {
				t.Fatalf("panic does not aggregate: %s", msg)
			}
		}()
		g.Run(func(w int) {
			if w == 1 || w == 3 {
				panic(fmt.Sprintf("boom-%d", w))
			}
		})
	}()
	// the gang survives a panicked round
	var ok atomic.Int64
	g.Run(func(w int) { ok.Add(1) })
	if ok.Load() != 4 {
		t.Fatalf("gang unusable after panic round: %d workers ran", ok.Load())
	}
}

// TestGangCreditsBusyTime: gang phases credit the cluster's per-worker busy
// meters.
func TestGangCreditsBusyTime(t *testing.T) {
	c := New(2)
	g := c.NewGang()
	defer g.Close()
	g.Run(func(w int) {
		s := 0
		for i := 0; i < 100000; i++ {
			s += i
		}
		_ = s
	})
	for w, b := range c.WorkerBusy() {
		if b <= 0 {
			t.Fatalf("worker %d busy time not credited: %v", w, b)
		}
	}
}

// TestGangRunAfterCloseRejected: Run on a closed gang is a wiring error.
func TestGangRunAfterCloseRejected(t *testing.T) {
	c := New(2)
	g := c.NewGang()
	g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close must panic")
		}
	}()
	g.Run(func(w int) {})
}

// TestGangConcurrentPhasesRace drives many rounds with per-worker disjoint
// writes plus an atomic shared counter (run with -race).
func TestGangConcurrentPhasesRace(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := New(workers)
		g := c.NewGang()
		slots := make([]int64, workers)
		var total atomic.Int64
		phase := func(w int) {
			slots[w]++
			total.Add(1)
		}
		for r := 0; r < 100; r++ {
			g.Run(phase)
		}
		if total.Load() != int64(100*workers) {
			t.Fatalf("workers=%d: %d phase executions, want %d", workers, total.Load(), 100*workers)
		}
		g.Close()
	}
}

// BenchmarkGangDispatch measures the per-round dispatch cost of a reused
// phase closure.
func BenchmarkGangDispatch(b *testing.B) {
	g := New(8).NewGang()
	defer g.Close()
	phase := func(w int) {}
	b.Run("gang", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Run(phase)
		}
	})
}
