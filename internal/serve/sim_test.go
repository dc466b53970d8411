package serve

import (
	"errors"
	"math/rand"
	"testing"
)

func TestSimulateFIFOHandComputed(t *testing.T) {
	// two workers (2 units/tick); jobs: cost 4 at t=0, cost 2 at t=0.
	// FIFO pours both units into job 0 for two ticks (done end of tick 1,
	// finish=2), then job 1 (done end of tick 2... wait: tick 0 gives 2 to
	// job0; tick 1 gives remaining 2 to job0 → finish 2; ticks 2 serves job1
	// → finish 3).
	arr := []Arrival{{At: 0, Cost: 4}, {At: 0, Cost: 2}}
	res, err := Simulate(SimConfig{Workers: 2, Policy: FIFO, Arrivals: arr})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Outcomes[0].Finish != 2 || res.Outcomes[1].Finish != 3 {
		t.Fatalf("FIFO finishes: %+v", res.Outcomes)
	}
}

func TestSimulateSRPTFavorsShortJob(t *testing.T) {
	// one worker; long job arrives first, short job second tick.
	arr := []Arrival{{At: 0, Cost: 10}, {At: 1, Cost: 1}}
	fifo, err := Simulate(SimConfig{Workers: 1, Policy: FIFO, Arrivals: arr})
	if err != nil {
		t.Fatalf("fifo: %v", err)
	}
	srpt, err := Simulate(SimConfig{Workers: 1, Policy: ShortestRemaining, Arrivals: arr})
	if err != nil {
		t.Fatalf("srpt: %v", err)
	}
	// under FIFO the short job waits behind the long one; under SRPT it
	// preempts and finishes at tick 2 (latency 1)
	if srpt.Outcomes[1].Latency != 1 {
		t.Fatalf("srpt short-job latency %d, want 1", srpt.Outcomes[1].Latency)
	}
	if fifo.Outcomes[1].Latency <= srpt.Outcomes[1].Latency {
		t.Fatalf("fifo should delay the short job: fifo=%d srpt=%d",
			fifo.Outcomes[1].Latency, srpt.Outcomes[1].Latency)
	}
	// work conservation: total completion mass is policy-independent
	if fifo.Completed != 2 || srpt.Completed != 2 {
		t.Fatalf("completions: fifo=%d srpt=%d", fifo.Completed, srpt.Completed)
	}
}

func TestSimulateRoundRobinShares(t *testing.T) {
	// one worker, two equal jobs: round-robin alternates units, both finish
	// within one tick of each other at the end
	arr := []Arrival{{At: 0, Cost: 3}, {At: 0, Cost: 3}}
	res, err := Simulate(SimConfig{Workers: 1, Policy: RoundRobin, Arrivals: arr})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	d := res.Outcomes[0].Finish - res.Outcomes[1].Finish
	if d < -1 || d > 1 {
		t.Fatalf("round-robin finishes should interleave: %+v", res.Outcomes)
	}
}

func TestSimulateWeightedFairBias(t *testing.T) {
	// equal costs, weight 3 vs 1: the heavy-weight job must finish first
	arr := []Arrival{{At: 0, Cost: 12, Weight: 1}, {At: 0, Cost: 12, Weight: 3}}
	res, err := Simulate(SimConfig{Workers: 1, Policy: WeightedFair, Arrivals: arr})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Outcomes[1].Finish >= res.Outcomes[0].Finish {
		t.Fatalf("weighted job should finish first: %+v", res.Outcomes)
	}
}

func TestSimulateShedsAndExpires(t *testing.T) {
	cfg := SimConfig{
		Workers:    1,
		Policy:     FIFO,
		QueueLimit: 1,
		Deadline:   2,
		Arrivals: []Arrival{
			{At: 0, Cost: 10}, // admitted, expires at t=2
			{At: 0, Cost: 1},  // shed: queue already holds one
			{At: 5, Cost: 1},  // admitted after the first expires, completes
		},
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Outcomes[0].Status != StatusExpired || res.Outcomes[1].Status != StatusRejected ||
		res.Outcomes[2].Status != StatusCompleted {
		t.Fatalf("statuses: %+v", res.Outcomes)
	}
	if res.Completed != 1 || res.Rejected != 1 || res.Expired != 1 {
		t.Fatalf("counts: %+v", res)
	}
	if res.Outcomes[1].Latency != -1 || res.Outcomes[1].Finish != -1 {
		t.Fatalf("rejected outcome carries service fields: %+v", res.Outcomes[1])
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := []SimConfig{
		{Workers: 0, Policy: FIFO},
		{Workers: 1, Policy: Policy(42)},
		{Workers: 1, Policy: FIFO, Arrivals: []Arrival{{At: 0, Cost: 0}}},
		{Workers: 1, Policy: FIFO, Arrivals: []Arrival{{At: 5, Cost: 1}, {At: 3, Cost: 1}}},
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("config %d: %v, want ErrInvalidRequest", i, err)
		}
	}
	// MaxTicks cap is a typed failure, not a hang
	if _, err := Simulate(SimConfig{Workers: 1, Policy: FIFO, MaxTicks: 3,
		Arrivals: []Arrival{{At: 0, Cost: 100}}}); err == nil {
		t.Fatal("expected MaxTicks error")
	}
}

// TestSeededArrivalDeterminism is the serving tier's determinism gate: the
// same seed must produce a byte-identical outcome trace and the same
// per-query outcome sequence, for every policy.
func TestSeededArrivalDeterminism(t *testing.T) {
	sizes := Bimodal{Light: Uniform{Min: 1, Max: 4}, Heavy: Uniform{Min: 40, Max: 80}, PHeavy: 0.1}
	gen := func() []Arrival {
		arr, err := PoissonArrivals(rand.New(rand.NewSource(42)), 400, 0.5, sizes)
		if err != nil {
			t.Fatalf("arrivals: %v", err)
		}
		return arr
	}
	a1, a2 := gen(), gen()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs across identical seeds: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	for _, pol := range Policies {
		cfg := SimConfig{Workers: 2, Policy: pol, QueueLimit: 64, Deadline: 400}
		cfg.Arrivals = a1
		r1, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%v run 1: %v", pol, err)
		}
		cfg.Arrivals = a2
		r2, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%v run 2: %v", pol, err)
		}
		if r1.Trace() != r2.Trace() {
			t.Fatalf("%v: traces diverge for the same seed", pol)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(lat, 50); got != 5 {
		t.Fatalf("p50 = %d, want 5", got)
	}
	if got := Percentile(lat, 99); got != 10 {
		t.Fatalf("p99 = %d, want 10", got)
	}
	if got := Percentile(lat, 100); got != 10 {
		t.Fatalf("p100 = %d, want 10", got)
	}
	if got := Percentile(nil, 50); got != -1 {
		t.Fatalf("empty p50 = %d, want -1", got)
	}
}

func TestLoadgenValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PoissonArrivals(nil, 10, 1, Uniform{Min: 1, Max: 2}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("nil rng: %v", err)
	}
	if _, err := PoissonArrivals(rng, 0, 1, Uniform{Min: 1, Max: 2}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := PoissonArrivals(rng, 10, 0, Uniform{Min: 1, Max: 2}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("lambda=0: %v", err)
	}
	arr, err := PoissonArrivals(rng, 100, 2, Uniform{Min: 3, Max: 3})
	if err != nil {
		t.Fatalf("poisson: %v", err)
	}
	for i, a := range arr {
		if a.Cost != 3 || (i > 0 && a.At < arr[i-1].At) {
			t.Fatalf("arrival %d malformed: %+v", i, a)
		}
	}
}
