package serve

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the serving tier's measurement model: a deterministic
// discrete-event simulation of the Engine contract (admission control,
// deadlines, the four scheduling policies) over metered work, in the same
// spirit as the experiment tables — logical ticks are the only clock, so
// the serve-sweep table is byte-identical run to run and machine to machine.
// One tick retires Workers work units, each handed out by the same policy
// pick (sched.go) the live Pool makes per task draw, under the same
// round-robin cursor rule. Admission and expiry are modelled per tick.

// Status is an arrival's terminal state in a simulation.
type Status int

const (
	// StatusCompleted: the query received its full service demand.
	StatusCompleted Status = iota
	// StatusRejected: admission control shed the query on arrival
	// (queue full) — the open-loop generator does not retry.
	StatusRejected
	// StatusExpired: the deadline passed before service completed.
	StatusExpired
)

func (s Status) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusRejected:
		return "rejected"
	case StatusExpired:
		return "expired"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// SimConfig configures one simulated serving run.
type SimConfig struct {
	// Workers is the pool capacity: work units retired per tick (≥ 1).
	Workers int
	// Policy is the scheduling discipline across in-flight queries.
	Policy Policy
	// QueueLimit bounds concurrently admitted queries; arrivals beyond it
	// are shed (0 = unbounded).
	QueueLimit int
	// Deadline in ticks: a query still unfinished Deadline ticks after
	// arrival expires and its residual work is abandoned (0 = none).
	Deadline int64
	// Arrivals is the open-loop workload, sorted by At.
	Arrivals []Arrival
	// MaxTicks caps the simulation as a runaway guard
	// (0 = defaultMaxTicks).
	MaxTicks int64
}

const defaultMaxTicks = 50_000_000

// Outcome is one arrival's terminal record.
type Outcome struct {
	Index   int   // position in SimConfig.Arrivals
	At      int64 // arrival tick
	Cost    int64 // service demand
	Status  Status
	Finish  int64 // terminal tick (completion or expiry); -1 when rejected
	Latency int64 // Finish − At for completed queries; -1 otherwise
}

// SimResult is a simulated serving run's full record.
type SimResult struct {
	Policy   Policy
	Outcomes []Outcome // in arrival order
	Horizon  int64     // last terminal event's tick (≥ last arrival tick)

	Completed, Rejected, Expired int
}

// simJob is one in-flight query inside the event loop.
type simJob struct {
	idx    int
	at     int64
	left   int64 // service demand not yet received
	weight int
	served int64 // units received (WeightedFair bookkeeping)
}

func (j *simJob) ready() bool         { return j.left > 0 }
func (j *simJob) remaining() int64    { return j.left }
func (j *simJob) share() (int64, int) { return j.served, j.weight }

// Simulate runs the discrete-event model and returns the per-arrival
// outcomes. It is a pure function of its config: identical configs produce
// identical results on any machine. Returns ErrInvalidRequest on malformed
// config (bad policy, unsorted arrivals, non-positive costs) and an error
// when MaxTicks is exceeded.
func Simulate(cfg SimConfig) (*SimResult, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("%w: Simulate needs Workers ≥ 1", ErrInvalidRequest)
	}
	if !cfg.Policy.valid() {
		return nil, fmt.Errorf("%w: unknown policy %v", ErrInvalidRequest, cfg.Policy)
	}
	for i, a := range cfg.Arrivals {
		if a.Cost < 1 {
			return nil, fmt.Errorf("%w: arrival %d has cost %d", ErrInvalidRequest, i, a.Cost)
		}
		if i > 0 && a.At < cfg.Arrivals[i-1].At {
			return nil, fmt.Errorf("%w: arrivals not sorted at index %d", ErrInvalidRequest, i)
		}
	}
	maxTicks := cfg.MaxTicks
	if maxTicks <= 0 {
		maxTicks = defaultMaxTicks
	}

	res := &SimResult{Policy: cfg.Policy, Outcomes: make([]Outcome, len(cfg.Arrivals))}
	for i, a := range cfg.Arrivals {
		res.Outcomes[i] = Outcome{Index: i, At: a.At, Cost: a.Cost, Finish: -1, Latency: -1}
	}

	var active []*simJob // admission order
	next := 0            // next arrival to admit
	rr := 0              // round-robin cursor into active
	var t int64
	for next < len(cfg.Arrivals) || len(active) > 0 {
		if t >= maxTicks {
			return nil, fmt.Errorf("serve: simulation exceeded %d ticks (offered load far beyond capacity with no shedding?)", maxTicks)
		}
		// fast-forward through idle time
		if len(active) == 0 && cfg.Arrivals[next].At > t {
			t = cfg.Arrivals[next].At
		}
		// admissions at tick t
		for next < len(cfg.Arrivals) && cfg.Arrivals[next].At == t {
			a := cfg.Arrivals[next]
			if cfg.QueueLimit > 0 && len(active) >= cfg.QueueLimit {
				res.Outcomes[next].Status = StatusRejected
				res.Rejected++
			} else {
				active = append(active, &simJob{idx: next, at: t, left: a.Cost, weight: weightFor(a.Weight)})
			}
			next++
		}
		// deadline expiry before this tick's service
		for i := 0; cfg.Deadline > 0 && i < len(active); {
			if j := active[i]; t-j.at >= cfg.Deadline {
				o := &res.Outcomes[j.idx]
				o.Status = StatusExpired
				o.Finish = t
				res.Expired++
				active = remove(active, i, &rr)
				continue
			}
			i++
		}
		// retire Workers units, one policy pick each: several units may go
		// to one query (workers ganging up on its tasks), as in the Pool
		for u := 0; u < cfg.Workers; u++ {
			i := pick(cfg.Policy, active, &rr)
			if i < 0 {
				break // every active query already fully served
			}
			active[i].left--
			active[i].served++
		}
		// completions at end of tick t
		for i := 0; i < len(active); {
			if j := active[i]; j.left == 0 {
				o := &res.Outcomes[j.idx]
				o.Status = StatusCompleted
				o.Finish = t + 1
				o.Latency = t + 1 - j.at
				res.Completed++
				if o.Finish > res.Horizon {
					res.Horizon = o.Finish
				}
				active = remove(active, i, &rr)
				continue
			}
			i++
		}
		if t >= res.Horizon {
			res.Horizon = t
		}
		t++
	}
	return res, nil
}

// CompletedLatencies returns the completed queries' latencies sorted
// ascending — the percentile input.
func (r *SimResult) CompletedLatencies() []int64 {
	out := make([]int64, 0, r.Completed)
	for _, o := range r.Outcomes {
		if o.Status == StatusCompleted {
			out = append(out, o.Latency)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// Percentile returns the nearest-rank p-th percentile (p in (0,100]) of
// sorted ascending latencies; -1 for an empty slice.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return -1
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Goodput returns completed queries per `per` ticks over the run's horizon
// (0 for an empty horizon).
func (r *SimResult) Goodput(per int64) float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) * float64(per) / float64(r.Horizon)
}

// Trace renders the byte-exact per-arrival outcome log — the artifact the
// seeded-determinism tests compare.
func (r *SimResult) Trace() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy=%s arrivals=%d\n", r.Policy, len(r.Outcomes))
	for _, o := range r.Outcomes {
		fmt.Fprintf(&sb, "i=%d at=%d cost=%d status=%s finish=%d latency=%d\n",
			o.Index, o.At, o.Cost, o.Status, o.Finish, o.Latency)
	}
	return sb.String()
}
