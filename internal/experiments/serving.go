package experiments

import (
	"fmt"
	"math/rand"

	"graphsys/internal/serve"
)

func init() {
	register("serve-sweep", "§3.11 serving tier: latency and goodput vs offered load per scheduling policy", ServeSweep)
}

// servingParams pins the sweep's workload: the table and its registered
// claims both measure through measureServingPoint, so a drifting parameter
// cannot silently decouple them.
type servingParams struct {
	seed          int64
	queries       int       // arrivals per sweep point
	workers       int       // capacity: work units per tick
	queueLimit    int       // admission bound (0 = unbounded)
	deadlineTicks int64     // per-query SLO (0 = none)
	lambdas       []float64 // offered loads, arrivals/tick
	lightMin      int64     // bimodal size mix: light range,
	lightMax      int64     // heavy range, heavy probability
	heavyMin      int64
	heavyMax      int64
	pHeavy        float64
}

// defaultServingParams is the committed sweep: a mostly-light bimodal mix
// (mean cost ≈ 5.4 units) against 4 units/tick of capacity, so saturation
// sits near λ ≈ 0.74 and the last two lambdas are past it.
func defaultServingParams() servingParams {
	return servingParams{
		seed:          42,
		queries:       2000,
		workers:       4,
		queueLimit:    32,
		deadlineTicks: 500,
		lambdas:       []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.6},
		lightMin:      1, lightMax: 4,
		heavyMin: 40, heavyMax: 80,
		pHeavy: 0.05,
	}
}

// overloadLambda is the sweep's highest offered load — the beyond-saturation
// point the shedding and dominance claims read.
func (p servingParams) overloadLambda() float64 {
	var m float64
	for _, l := range p.lambdas {
		if l > m {
			m = l
		}
	}
	return m
}

// meanCost is the expectation of the sweep's bimodal size mix.
func (p servingParams) meanCost() float64 {
	light := float64(p.lightMin+p.lightMax) / 2
	heavy := float64(p.heavyMin+p.heavyMax) / 2
	return (1-p.pHeavy)*light + p.pHeavy*heavy
}

// servingPoint is one (policy, offered-load) cell of the sweep.
type servingPoint struct {
	completed, rejected, expired int
	p50, p99                     int64
	goodput                      float64 // completions per kilotick
}

// measureServingPoint runs one (policy, offered-load, seed) cell: a seeded
// open-loop Poisson workload through the deterministic serving simulator.
// Identical inputs produce an identical point on any machine.
func measureServingPoint(p servingParams, policy serve.Policy, lambda float64, seed int64) (servingPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	arr, err := serve.PoissonArrivals(rng, p.queries, lambda, serve.Bimodal{
		Light:  serve.Uniform{Min: p.lightMin, Max: p.lightMax},
		Heavy:  serve.Uniform{Min: p.heavyMin, Max: p.heavyMax},
		PHeavy: p.pHeavy,
	})
	if err != nil {
		return servingPoint{}, err
	}
	res, err := serve.Simulate(serve.SimConfig{
		Workers:    p.workers,
		Policy:     policy,
		QueueLimit: p.queueLimit,
		Deadline:   p.deadlineTicks,
		Arrivals:   arr,
	})
	if err != nil {
		return servingPoint{}, err
	}
	lat := res.CompletedLatencies()
	return servingPoint{
		completed: res.Completed,
		rejected:  res.Rejected,
		expired:   res.Expired,
		p50:       serve.Percentile(lat, 50),
		p99:       serve.Percentile(lat, 99),
		goodput:   res.Goodput(1000),
	}, nil
}

// ServeSweep is the serving-tier saturation sweep as a paper-style table:
// one deterministic logical-time simulation per (policy, offered-load) cell.
// Open-loop Poisson arrivals with a bimodal light/heavy cost mix meet a
// fixed-capacity server under admission control and a per-query deadline;
// latencies are logical ticks and goodput is completions per kilotick, so
// every cell is a pure function of the parameters and the results.txt
// golden comparison covers the simulator (the policy pick it shares with
// the Pool, shedding, expiry).
func ServeSweep() *Table {
	p := defaultServingParams()
	t := &Table{ID: "serve-sweep",
		Title: fmt.Sprintf("serving saturation sweep (workers=%d queue=%d deadline=%d ticks, %d queries/point, seed %d)",
			p.workers, p.queueLimit, p.deadlineTicks, p.queries, p.seed),
		Header: []string{"policy", "λ offered", "completed", "rejected", "expired", "p50 ticks", "p99 ticks", "goodput/ktick"}}
	for _, pol := range serve.Policies {
		for _, lambda := range p.lambdas {
			pt := must2(measureServingPoint(p, pol, lambda, p.seed))
			t.AddRow(pol.String(), fmt.Sprintf("%.2f", lambda),
				pt.completed, pt.rejected, pt.expired, pt.p50, pt.p99, pt.goodput)
		}
	}
	t.Note("capacity is %d work units/tick against a mean query cost ≈ %.1f units, so saturation sits near λ ≈ %.2f; the last two loads are past it",
		p.workers, p.meanCost(), float64(p.workers)/p.meanCost())
	t.Note("shortest-remaining-work keeps the light tail flowing under overload (p50 stays at 1 tick) where FIFO queues it behind heavy queries")
	t.Note("every cell is a pure function of the parameters; TestServeSweepMatchesResults pins this table byte for byte against results.txt")
	return t
}
