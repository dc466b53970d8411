package serve

import "fmt"

// Policy is the scheduling discipline an engine applies across in-flight
// queries. The Pool's task draws and the discrete-event simulator behind
// the serve-sweep experiment make the same policy pick under the same
// round-robin cursor rule (sched.go); the simulator models admission and
// expiry per tick. The Batcher orders each batch window by its own stable
// sort on the policy (Batcher.orderLocked).
type Policy int

const (
	// RoundRobin serves active queries in rotation — G-thinkerQ's per-query
	// round-robin task draw, which approximates egalitarian processor
	// sharing. The baseline.
	RoundRobin Policy = iota
	// FIFO runs queries to completion in admission order (head-of-line
	// blocking and all): the offline/sequential baseline policy.
	FIFO
	// ShortestRemaining serves the query with the least remaining estimated
	// work first (SRPT): minimises mean latency, keeps short queries ahead
	// of heavy sweeps, may starve heavy queries under overload.
	ShortestRemaining
	// WeightedFair divides service in proportion to Request.Weight
	// (weighted fair queueing over query task draws).
	WeightedFair
)

// Policies lists every policy in a fixed, reportable order.
var Policies = []Policy{RoundRobin, FIFO, ShortestRemaining, WeightedFair}

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case FIFO:
		return "fifo"
	case ShortestRemaining:
		return "srw"
	case WeightedFair:
		return "wfq"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// valid reports whether p is one of the defined policies.
func (p Policy) valid() bool {
	return p >= RoundRobin && p <= WeightedFair
}

// fairBefore reports whether a job with (servedA, weightA) is owed service
// before one with (servedB, weightB) under weighted fair queueing: the
// smaller served/weight ratio wins. Integer cross-multiplication avoids
// float drift in the scheduling decision.
func fairBefore(servedA int64, weightA int, servedB int64, weightB int) bool {
	return servedA*int64(weightB) < servedB*int64(weightA)
}
