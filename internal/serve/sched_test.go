package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refJob is one in-flight query of the reference model.
type refJob struct {
	idx            int
	at             int64
	left, served   int64
	weight         int
	expire, finish bool
}

// refSimulate is the serial reference model of Simulate, written from the
// spec rather than from the simulator: each tick admits arrivals (shedding
// beyond limit), expires queries deadline ticks old, hands out one work unit
// per worker to the query the policy picks, and retires queries with no
// demand left at the end of the tick. The round-robin cursor is the identity
// of the query the rotation resumes at, never an index, so removals cannot
// shift it onto the wrong query.
func refSimulate(pol Policy, workers, limit int, deadline int64, arr []Arrival) ([]Outcome, [3]int) {
	outs := make([]Outcome, len(arr))
	for i, a := range arr {
		outs[i] = Outcome{Index: i, At: a.At, Cost: a.Cost, Finish: -1, Latency: -1}
	}
	var counts [3]int // completed, rejected, expired
	var active []*refJob
	var cursor *refJob // the query round-robin resumes at; nil = the oldest
	// retire drops the marked queries; a retired cursor moves to the first
	// survivor after it in rotation.
	retire := func() {
		var kept []*refJob
		pos := -1
		for i, j := range active {
			if j == cursor {
				pos = i
			}
			if !j.expire && !j.finish {
				kept = append(kept, j)
			}
		}
		if cursor != nil && (cursor.expire || cursor.finish) {
			cursor = nil
			for k := 1; k < len(active); k++ {
				if j := active[(pos+k)%len(active)]; !j.expire && !j.finish {
					cursor = j
					break
				}
			}
		}
		active = kept
	}
	less := func(a, b *refJob) bool { // a strictly ahead of b under pol
		switch pol {
		case ShortestRemaining:
			return a.left < b.left
		case WeightedFair: // served/weight, cross-multiplied
			return a.served*int64(b.weight) < b.served*int64(a.weight)
		}
		return false // FIFO: admission order only
	}
	next := 0
	for t := int64(0); next < len(arr) || len(active) > 0; t++ {
		if len(active) == 0 && arr[next].At > t {
			t = arr[next].At
		}
		for ; next < len(arr) && arr[next].At == t; next++ {
			if limit > 0 && len(active) >= limit {
				outs[next].Status = StatusRejected
				counts[1]++
				continue
			}
			active = append(active, &refJob{idx: next, at: t, left: arr[next].Cost, weight: arr[next].Weight})
		}
		for _, j := range active {
			if deadline > 0 && t-j.at >= deadline {
				j.expire = true
				outs[j.idx].Status, outs[j.idx].Finish = StatusExpired, t
				counts[2]++
			}
		}
		retire()
		for u := 0; u < workers; u++ {
			var best *refJob
			if pol == RoundRobin {
				start := 0
				for i, j := range active {
					if j == cursor {
						start = i
					}
				}
				for k := range active {
					i := (start + k) % len(active)
					if active[i].left > 0 {
						best, cursor = active[i], active[(i+1)%len(active)]
						break
					}
				}
			} else {
				for _, j := range active {
					if j.left > 0 && (best == nil || less(j, best)) {
						best = j
					}
				}
			}
			if best == nil {
				break
			}
			best.left--
			best.served++
		}
		for _, j := range active {
			if j.left == 0 {
				j.finish = true
				outs[j.idx].Status, outs[j.idx].Finish, outs[j.idx].Latency = StatusCompleted, t+1, t+1-j.at
				counts[0]++
			}
		}
		retire()
	}
	return outs, counts
}

// FuzzServeSim holds Simulate to refSimulate on seeded arrival streams of up
// to 64 queries (costs 1–36, weights 1–3) across policy × workers 1–6 ×
// queue limit 0–19 × deadline 0–79. The committed seeds run with the unit
// tests. The first is a round-robin stream on which a simulator that moved
// its cursor by each removed query's pre-removal index skipped a query.
func FuzzServeSim(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(0), uint8(4), uint8(0), uint8(0))
	for i := 0; i < 8; i++ {
		f.Add(int64(100+i), uint8(20+5*i), uint8(i), uint8(i), uint8(3*i), uint8(11*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, pol, workers, limit, deadline uint8) {
		rng := rand.New(rand.NewSource(seed))
		arr := make([]Arrival, int(n)%65)
		var at int64
		for i := range arr {
			at += int64(rng.Intn(4))
			arr[i] = Arrival{At: at, Cost: 1 + rng.Int63n(36), Weight: 1 + rng.Intn(3)}
		}
		cfg := SimConfig{Workers: 1 + int(workers)%6, Policy: Policies[int(pol)%len(Policies)],
			QueueLimit: int(limit) % 20, Deadline: int64(deadline) % 80, Arrivals: arr}
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		want, counts := refSimulate(cfg.Policy, cfg.Workers, cfg.QueueLimit, cfg.Deadline, arr)
		for i := range want {
			if res.Outcomes[i] != want[i] {
				t.Fatalf("%v workers=%d limit=%d deadline=%d: arrival %d = %+v, reference %+v",
					cfg.Policy, cfg.Workers, cfg.QueueLimit, cfg.Deadline, i, res.Outcomes[i], want[i])
			}
		}
		if got := [3]int{res.Completed, res.Rejected, res.Expired}; got != counts {
			t.Fatalf("completed/rejected/expired = %v, reference %v", got, counts)
		}
	})
}

// TestPoolDrawsMatchSimulate: a one-worker Pool finishes each query at the
// tick Simulate(Workers: 1) finishes it, under every policy. A gate query
// holds the worker until the others are all queued (the simulator's cost-1
// arrival at tick 0, the others arriving at tick 1), and each task advances
// the logical clock by one tick, so a ticket's latency is its finish tick.
func TestPoolDrawsMatchSimulate(t *testing.T) {
	jobs := []Arrival{{At: 1, Cost: 5, Weight: 1}, {At: 1, Cost: 2, Weight: 3},
		{At: 1, Cost: 4, Weight: 2}, {At: 1, Cost: 3, Weight: 1}}
	const tick = time.Second
	for _, pol := range Policies {
		t.Run(pol.String(), func(t *testing.T) {
			sim, err := Simulate(SimConfig{Workers: 1, Policy: pol,
				Arrivals: append([]Arrival{{At: 0, Cost: 1, Weight: 1}}, jobs...)})
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			lc := NewLogicalClock(time.Unix(0, 0))
			started, gate := make(chan struct{}), make(chan struct{})
			p, err := NewPool[int, int](Options{Workers: 1, Policy: pol, Clock: lc.Clock()},
				func(tc *TaskContext[int], task int) int {
					if task < 0 { // the gate query's one task
						close(started)
						<-gate
					}
					lc.Advance(tick)
					return 0
				}, func(a, b int) int { return a + b })
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			defer p.Close()
			release := sync.OnceFunc(func() { close(gate) })
			defer release() // runs before Close: a failed submit must not leave the gate shut
			tickets := make([]*Ticket[int], 1+len(jobs))
			submit := func(i int, spec JobSpec[int, int]) {
				if tickets[i], err = p.Submit(spec); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			submit(0, JobSpec[int, int]{Roots: []int{-1}, Cost: 1})
			<-started
			for i, a := range jobs {
				submit(i+1, JobSpec[int, int]{Roots: make([]int, a.Cost), Cost: a.Cost, Weight: a.Weight})
			}
			release()
			for i, tk := range tickets {
				if _, err := tk.Wait(); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if got, want := tk.Latency(), time.Duration(sim.Outcomes[i].Finish)*tick; got != want {
					t.Errorf("query %d finished at tick %d, Simulate says %d", i, got/tick, want/tick)
				}
			}
		})
	}
}
