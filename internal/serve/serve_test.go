package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sumPool builds a Pool whose tasks are ints contributing their value to the
// query's sum; tasks > split spawn two children summing to the same total, so
// queries decompose like real matching work.
func sumPool(t *testing.T, opts Options) *Pool[int, int64] {
	t.Helper()
	p, err := NewPool[int, int64](opts, func(tc *TaskContext[int], task int) int64 {
		if task > 4 {
			half := task / 2
			tc.Spawn(half, task-half)
			return 0
		}
		return int64(task)
	}, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

func TestPoolCompletesAcrossPolicies(t *testing.T) {
	for _, pol := range Policies {
		t.Run(pol.String(), func(t *testing.T) {
			p := sumPool(t, Options{Workers: 4, Policy: pol})
			defer p.Close()
			var tickets []*Ticket[int64]
			for i := 1; i <= 20; i++ {
				tk, err := p.Submit(JobSpec[int, int64]{Roots: []int{i * 7}, Cost: int64(i * 7), Weight: 1 + i%3})
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				tickets = append(tickets, tk)
			}
			for i, tk := range tickets {
				got, err := tk.Wait()
				if err != nil || got != int64((i+1)*7) {
					t.Fatalf("query %d: got (%d, %v), want (%d, nil)", i, got, err, (i+1)*7)
				}
			}
			m := p.Metrics()
			if m.Admitted != 20 || m.Completed != 20 || m.Rejected != 0 {
				t.Fatalf("metrics: %+v", m)
			}
		})
	}
}

func TestPoolEmptyRootsCompleteImmediately(t *testing.T) {
	p := sumPool(t, Options{Workers: 1})
	defer p.Close()
	tk, err := p.Submit(JobSpec[int, int64]{Initial: 42})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got, err := tk.Wait(); got != 42 || err != nil {
		t.Fatalf("got (%d, %v)", got, err)
	}
}

// TestPoolTaskAllocs pins the worker loop's reuse of one TaskContext: the
// pool itself allocates per query, not per task.
func TestPoolTaskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := sumPool(t, Options{Workers: 2})
	defer p.Close()
	const roots, tasks = 2000, 10000 // each root 9 runs as 9 → 4, 5 → 5 → 2, 3
	allocs := testing.AllocsPerRun(5, func() {
		rs := make([]int, roots)
		for i := range rs {
			rs[i] = 9
		}
		tk, err := p.Submit(JobSpec[int, int64]{Roots: rs})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if got, err := tk.Wait(); got != 9*roots || err != nil {
			t.Fatalf("got (%d, %v)", got, err)
		}
	})
	if perTask := allocs / tasks; perTask >= 0.1 {
		t.Fatalf("%.3f allocations per task, want < 0.1", perTask)
	}
}

func TestPoolQueueFullSheds(t *testing.T) {
	gate := make(chan struct{})
	p, err := NewPool[int, int64](Options{Workers: 1, QueueLimit: 1},
		func(tc *TaskContext[int], task int) int64 { <-gate; return int64(task) },
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p.Close()
	tk, err := p.Submit(JobSpec[int, int64]{Roots: []int{1}})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := p.Submit(JobSpec[int, int64]{Roots: []int{2}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit: %v, want ErrQueueFull", err)
	}
	close(gate)
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if m := p.Metrics(); m.Rejected != 1 || m.Admitted != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestPoolSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	p := sumPool(t, Options{Workers: 2})
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := p.Submit(JobSpec[int, int64]{Roots: []int{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestPoolCancelReturnsPartialWithErrCanceled(t *testing.T) {
	// tasks spawn children forever until aborted: the query can only end by
	// cancellation, making the terminal state deterministic
	started := make(chan struct{})
	var once sync.Once
	p, err := NewPool[int, int64](Options{Workers: 2},
		func(tc *TaskContext[int], task int) int64 {
			once.Do(func() { close(started) })
			if !tc.Aborted() {
				tc.Spawn(task + 1)
			}
			return 1
		},
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p.Close()
	tk, err := p.Submit(JobSpec[int, int64]{Roots: []int{0}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started // at least one task's partial is merged before we cancel
	tk.Cancel()
	got, werr := tk.Wait()
	if !errors.Is(werr, ErrCanceled) {
		t.Fatalf("wait err %v, want ErrCanceled", werr)
	}
	if got < 1 {
		t.Fatalf("partial result %d, want >= 1 merged task", got)
	}
	if m := p.Metrics(); m.Canceled != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestPoolDeadlineExpiry(t *testing.T) {
	lc := NewLogicalClock(time.Unix(0, 0))
	p, err := NewPool[int, int64](Options{Workers: 2, Clock: lc.Clock()},
		func(tc *TaskContext[int], task int) int64 {
			if !tc.Aborted() {
				tc.Spawn(task + 1) // unbounded: only expiry can terminate it
			}
			return 1
		},
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer p.Close()
	tk, err := p.Submit(JobSpec[int, int64]{Roots: []int{0}, Deadline: time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	lc.Advance(2 * time.Second)
	if _, werr := tk.Wait(); !errors.Is(werr, ErrDeadlineExceeded) {
		t.Fatalf("wait err %v, want ErrDeadlineExceeded", werr)
	}
	if m := p.Metrics(); m.Expired != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if tk.Latency() < 2*time.Second {
		t.Fatalf("logical latency %v, want >= 2s", tk.Latency())
	}
}

// TestPoolConcurrentSubmitCancelClose is the race-detector workout: many
// goroutines submit, a fraction cancel concurrently, Close races with the
// tail of the submissions. Every ticket must reach a coherent terminal state
// and the metrics must balance.
func TestPoolConcurrentSubmitCancelClose(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := sumPool(t, Options{Workers: workers, Policy: ShortestRemaining})
			const n = 60
			var wg sync.WaitGroup
			tickets := make([]*Ticket[int64], n)
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tk, err := p.Submit(JobSpec[int, int64]{Roots: []int{50 + i}, Cost: int64(50 + i)})
					tickets[i], errs[i] = tk, err
					if err == nil && i%3 == 0 {
						tk.Cancel()
					}
				}(i)
			}
			wg.Wait()
			if err := p.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			var terminal int64
			for i, tk := range tickets {
				if errs[i] != nil {
					t.Fatalf("submit %d failed: %v", i, errs[i])
				}
				want := int64(50 + i)
				got, err := tk.Wait()
				switch {
				case err == nil:
					if got != want {
						t.Fatalf("query %d: got %d want %d", i, got, want)
					}
				case errors.Is(err, ErrCanceled):
					if got > want {
						t.Fatalf("query %d: partial %d exceeds total %d", i, got, want)
					}
				default:
					t.Fatalf("query %d: unexpected error %v", i, err)
				}
				terminal++
			}
			m := p.Metrics()
			if m.Admitted != n || m.Completed+m.Canceled != n {
				t.Fatalf("metrics don't balance: %+v", m)
			}
			_ = terminal
		})
	}
}

func TestBatcherAnswersAligned(t *testing.T) {
	b, err := NewBatcher[int, int](Options{Batch: 4}, func(batch []int) ([]int, error) {
		out := make([]int, len(batch))
		for i, q := range batch {
			out[i] = q * q
		}
		return out, nil
	})
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	defer b.Close()
	var tickets []*Ticket[int]
	for i := 1; i <= 10; i++ {
		tk, err := b.Submit(Request[int]{Query: i})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	b.Drain()
	for i, tk := range tickets {
		got, err := tk.Wait()
		if err != nil || got != (i+1)*(i+1) {
			t.Fatalf("query %d: got (%d, %v)", i, got, err)
		}
	}
	if m := b.Metrics(); m.Completed != 10 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestBatcherCancelAndExpireReapedAtWindow(t *testing.T) {
	lc := NewLogicalClock(time.Unix(0, 0))
	gate := make(chan struct{})
	first := true
	b, err := NewBatcher[int, int](Options{Clock: lc.Clock(), Batch: 1}, func(batch []int) ([]int, error) {
		if first {
			first = false
			<-gate // hold the loop so later submissions stay queued
		}
		return make([]int, len(batch)), nil
	})
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	defer b.Close()
	t1, err := b.Submit(Request[int]{Query: 1})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// block until the loop has taken t1 into its batch so t2/t3 stay queued
	for {
		b.mu.Lock()
		inflight := b.inflight
		b.mu.Unlock()
		if inflight == 1 {
			break
		}
		runtime.Gosched()
	}
	t2, err := b.Submit(Request[int]{Query: 2})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	t3, err := b.Submit(Request[int]{Query: 3, Deadline: time.Second})
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	t2.Cancel()
	lc.Advance(2 * time.Second)
	close(gate)
	if _, werr := t1.Wait(); werr != nil {
		t.Fatalf("t1: %v", werr)
	}
	if _, werr := t2.Wait(); !errors.Is(werr, ErrCanceled) {
		t.Fatalf("t2: %v, want ErrCanceled", werr)
	}
	if _, werr := t3.Wait(); !errors.Is(werr, ErrDeadlineExceeded) {
		t.Fatalf("t3: %v, want ErrDeadlineExceeded", werr)
	}
	m := b.Metrics()
	if m.Canceled != 1 || m.Expired != 1 || m.Completed != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestBatcherQueueFullAndClosed(t *testing.T) {
	gate := make(chan struct{})
	b, err := NewBatcher[int, int](Options{QueueLimit: 1}, func(batch []int) ([]int, error) {
		<-gate
		return make([]int, len(batch)), nil
	})
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	if _, err := b.Submit(Request[int]{Query: 1}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := b.Submit(Request[int]{Query: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit 2: %v, want ErrQueueFull", err)
	}
	close(gate)
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := b.Submit(Request[int]{Query: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if m := b.Metrics(); m.Rejected != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestBatcherRunErrorFailsTickets(t *testing.T) {
	boom := errors.New("boom")
	b, err := NewBatcher[int, int](Options{}, func(batch []int) ([]int, error) { return nil, boom })
	if err != nil {
		t.Fatalf("NewBatcher: %v", err)
	}
	defer b.Close()
	tk, err := b.Submit(Request[int]{Query: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, werr := tk.Wait(); !errors.Is(werr, boom) {
		t.Fatalf("wait: %v, want boom", werr)
	}
	if m := b.Metrics(); m.Failed != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestPolicyParseRoundTrip: a policy outside the defined four is rejected
// at construction with ErrInvalidRequest.
func TestPolicyParseRoundTrip(t *testing.T) {
	if _, err := NewPool[int, int](Options{Policy: Policy(99)},
		func(tc *TaskContext[int], task int) int { return 0 },
		func(a, b int) int { return 0 }); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("NewPool bad policy: %v", err)
	}
}

func TestFairBefore(t *testing.T) {
	// served/weight ratios: 2/1=2 vs 3/2=1.5 — the second is more underserved
	if fairBefore(2, 1, 3, 2) {
		t.Fatal("2/1 should not come before 3/2")
	}
	if !fairBefore(3, 2, 2, 1) {
		t.Fatal("3/2 should come before 2/1")
	}
}

func TestLogicalClock(t *testing.T) {
	base := time.Unix(100, 0)
	lc := NewLogicalClock(base)
	if !lc.Now().Equal(base) {
		t.Fatalf("now: %v", lc.Now())
	}
	lc.Advance(time.Minute)
	lc.Advance(-time.Hour) // ignored: logical time never rewinds
	if got := lc.Now(); !got.Equal(base.Add(time.Minute)) {
		t.Fatalf("after advance: %v", got)
	}
}
