package serve

// This file is the serving tier's one scheduler: the policy pick and the
// round-robin cursor rule, shared by the live Pool (one call per task draw)
// and the simulator (one call per work unit). Callers differ only in what a
// query exposes, which schedQuery names.

// schedQuery is what the policy pick reads from one in-flight query.
type schedQuery interface {
	// ready reports whether the query can take a draw (or work unit) now.
	ready() bool
	// remaining is the ShortestRemaining key.
	remaining() int64
	// share is the WeightedFair bookkeeping: service received and weight.
	share() (served int64, weight int)
}

// pick returns the index in q of the query the next draw goes to under
// policy, or -1 when no query is ready. q is in admission order and ties go
// to earlier admission, so every policy is deterministic given the same
// state. rr is the round-robin cursor: the index the rotation resumes at.
func pick[Q schedQuery](policy Policy, q []Q, rr *int) int {
	best := -1
	switch policy {
	case RoundRobin:
		for k := range q {
			i := (*rr + k) % len(q)
			if q[i].ready() {
				*rr = (i + 1) % len(q)
				return i
			}
		}
	case FIFO:
		for i := range q {
			if q[i].ready() {
				return i
			}
		}
	case ShortestRemaining:
		for i := range q {
			if q[i].ready() && (best < 0 || q[i].remaining() < q[best].remaining()) {
				best = i
			}
		}
	case WeightedFair:
		for i := range q {
			if !q[i].ready() {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			s, w := q[i].share()
			bs, bw := q[best].share()
			if fairBefore(s, w, bs, bw) {
				best = i
			}
		}
	}
	return best
}

// remove deletes q[i] in place, preserving admission order, and returns the
// shortened slice. The cursor stays on the query it pointed at; if that was
// the removed one, it moves to the next query in rotation.
func remove[Q any](q []Q, i int, rr *int) []Q {
	var zero Q
	copy(q[i:], q[i+1:])
	q[len(q)-1] = zero // release the reference for GC
	q = q[:len(q)-1]
	if *rr > i {
		*rr--
	}
	if len(q) == 0 {
		*rr = 0
	} else {
		*rr %= len(q)
	}
	return q
}
