package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Network meters all cross-worker traffic. Messages between distinct workers
// count toward Bytes/Messages and accumulate WeightedCost = bytes×linkCost;
// worker-local deliveries are counted separately (they model shared-memory
// access and are free in the surveyed systems' cost models).
//
// Heterogeneous links (the DGCL NVLink scenario) are expressed through the
// per-byte link cost matrix: a fast NVLink pair has cost ≪ 1, a cross-host
// TCP link cost 1.
//
// Metering has two entry points with identical accounting semantics:
//
//   - Account / AccountBatch — the direct path, one (or one batched) lock
//     acquisition per call. Engines that move bulk tensors once per round
//     (gnndist weight sync, feature pulls) use these.
//   - the staged path — Mailboxes stages messages per sender without touching
//     the network at all, and flushes each sender's per-destination totals
//     under ONE lock acquisition per sender per round at Exchange. This is
//     the message hot path (Pregel-style engines), where per-message locking
//     would dominate the run.
//
// With EnableTrace the network additionally keeps a per-link (worker×worker)
// traffic matrix and a per-round history (one RoundStats per AccountRound),
// the raw material of the observability layer in internal/obs. Per-round
// stats are flush-driven: staged traffic lands in the current round's window
// at the Exchange that flushes it, which is also the round boundary.
type Network struct {
	n int

	traceOn atomic.Bool
	faults  atomic.Pointer[FaultInjector] // non-nil once a fault plan is installed

	// All counters live under one mutex so Stats() is a consistent snapshot
	// (messages/bytes/cost can never be observed torn mid-update). The staged
	// path acquires it once per sender per round, so it is uncontended there;
	// the direct Account path acquires it per call, exactly as before.
	mu       sync.Mutex
	messages int64 // logical cross-worker messages (delivered payloads)
	attempts int64 // physical transmissions incl. FaultPlan retries, ≥ messages
	bytes    int64 // cross-worker bytes on the wire, incl. retry traffic
	local    int64 // worker-local deliveries
	rounds   int64
	cost     float64
	linkCost [][]float64 // SetLinkCost may race with Account

	// tracing state (allocated by EnableTrace, guarded by mu)
	linkBytes []int64 // n×n row-major: wire bytes sent i→j (incl. retries)
	linkMsgs  []int64 // n×n row-major: transmissions i→j (incl. retries)
	cur       RoundStats
	history   []RoundStats
}

// NewNetwork creates a network for n workers with uniform link cost 1.
func NewNetwork(n int) *Network {
	if n <= 0 {
		//lint:allow panicpolicy worker count is a configuration constant; a zero network is a programmer error, not a runtime condition
		panic("cluster: network needs at least one worker")
	}
	lc := make([][]float64, n)
	for i := range lc {
		lc[i] = make([]float64, n)
		for j := range lc[i] {
			lc[i][j] = 1
		}
	}
	return &Network{n: n, linkCost: lc}
}

// NumWorkers returns the number of workers the network connects.
func (net *Network) NumWorkers() int { return net.n }

func (net *Network) checkLink(i, j int) {
	if i < 0 || i >= net.n || j < 0 || j >= net.n {
		panic(fmt.Sprintf("cluster: link (%d,%d) out of range for %d-worker network", i, j, net.n))
	}
}

// SetLinkCost sets the per-byte cost of the directed link i→j. It is safe to
// call concurrently with Account (topology reconfiguration mid-run).
func (net *Network) SetLinkCost(i, j int, cost float64) {
	net.checkLink(i, j)
	net.mu.Lock()
	net.linkCost[i][j] = cost
	net.mu.Unlock()
}

// LinkCost returns the per-byte cost of the link i→j.
func (net *Network) LinkCost(i, j int) float64 {
	net.checkLink(i, j)
	net.mu.Lock()
	c := net.linkCost[i][j]
	net.mu.Unlock()
	return c
}

// EnableTrace turns on per-link and per-round accounting. Counting starts at
// the moment of the call; traffic accounted earlier is only in the global
// aggregates. Enabling is idempotent and keeps any trace already collected.
func (net *Network) EnableTrace() {
	net.mu.Lock()
	if net.linkBytes == nil {
		net.linkBytes = make([]int64, net.n*net.n)
		net.linkMsgs = make([]int64, net.n*net.n)
	}
	net.mu.Unlock()
	net.traceOn.Store(true)
}

// setFaults attaches a fault injector; subsequent cross-worker transfers are
// subject to the plan's message drops with metered retransmission.
func (net *Network) setFaults(fi *FaultInjector) { net.faults.Store(fi) }

// Account records a transfer of size bytes from worker i to worker j.
// It carries no payload; payload delivery is the caller's concern (Mailboxes,
// shared structures). Local transfers (i==j) are metered separately.
//
// Under an installed FaultPlan with DropProb > 0, a cross-worker transfer may
// be "dropped" and retransmitted: the message is always eventually delivered
// (bounded by MaxRetries), so it counts once toward Messages, but every
// failed attempt is accounted as real link traffic — Attempts, Bytes and
// WeightedCost include the wasted transmissions a lossy network actually
// carries.
func (net *Network) Account(i, j int, size int64) {
	net.AccountBatch(i, j, 1, size)
}

// AccountBatch records msgs transfers totalling bytes from worker i to worker
// j under a single lock acquisition — the batched-transfer accounting the
// surveyed systems' communication layers (Giraph superstep batching, DistDGL
// block feature transfer) use to avoid per-message overhead. Fault-plan drops
// are drawn per message with the batch's mean message size, so retry metering
// matches msgs individual Account calls for uniform-size batches.
func (net *Network) AccountBatch(i, j int, msgs, bytes int64) {
	net.checkLink(i, j)
	if msgs <= 0 {
		return
	}
	if i == j {
		net.mu.Lock()
		net.local += msgs
		if net.traceOn.Load() {
			net.cur.LocalMessages += msgs
		}
		net.mu.Unlock()
		return
	}
	drops, retryBytes := net.faults.Load().drawDropsUniform(msgs, bytes/msgs)
	attempts := msgs + drops
	wire := bytes + retryBytes
	net.mu.Lock()
	net.messages += msgs
	net.attempts += attempts
	net.bytes += wire
	c := float64(wire) * net.linkCost[i][j]
	net.cost += c
	if net.traceOn.Load() {
		k := i*net.n + j
		net.linkBytes[k] += wire
		net.linkMsgs[k] += attempts
		net.cur.Messages += msgs
		net.cur.Attempts += attempts
		net.cur.Bytes += wire
		net.cur.WeightedCost += c
	}
	net.mu.Unlock()
}

// flushSender is the staged path's metering entry: it lands sender `from`'s
// whole round of traffic — per-destination logical messages, physical
// attempts and wire bytes, plus worker-local deliveries — under ONE lock
// acquisition. Drop draws already happened at the caller (flush time), so the
// critical section is pure accumulation.
func (net *Network) flushSender(from int, msgs, attempts, bytes []int64, localMsgs int64) {
	net.mu.Lock()
	defer net.mu.Unlock()
	tr := net.traceOn.Load()
	if localMsgs > 0 {
		net.local += localMsgs
		if tr {
			net.cur.LocalMessages += localMsgs
		}
	}
	for d := range msgs {
		if msgs[d] == 0 {
			continue
		}
		net.messages += msgs[d]
		net.attempts += attempts[d]
		net.bytes += bytes[d]
		c := float64(bytes[d]) * net.linkCost[from][d]
		net.cost += c
		if tr {
			k := from*net.n + d
			net.linkBytes[k] += bytes[d]
			net.linkMsgs[k] += attempts[d]
			net.cur.Messages += msgs[d]
			net.cur.Attempts += attempts[d]
			net.cur.Bytes += bytes[d]
			net.cur.WeightedCost += c
		}
	}
}

// AccountRound records the completion of one global synchronisation round.
// Under tracing it also closes the current RoundStats window.
func (net *Network) AccountRound() {
	net.mu.Lock()
	net.rounds++
	if net.traceOn.Load() {
		cur := net.cur
		cur.Round = int(net.rounds) - 1
		net.history = append(net.history, cur)
		net.cur = RoundStats{}
	}
	net.mu.Unlock()
}

// RoundStats is the traffic accounted within one synchronisation round.
// Attempts ≥ Messages; the difference is FaultPlan retry transmissions.
type RoundStats struct {
	Round         int     `json:"round"`
	Messages      int64   `json:"messages"`
	Attempts      int64   `json:"attempts"`
	Bytes         int64   `json:"bytes"`
	LocalMessages int64   `json:"local_messages"`
	WeightedCost  float64 `json:"weighted_cost"`
}

// TrafficMatrix returns copies of the per-link byte and transmission totals
// (bytes[i][j] = wire bytes sent i→j, incl. retry traffic). Both are nil if
// tracing was never enabled.
func (net *Network) TrafficMatrix() (bytes, msgs [][]int64) {
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.linkBytes == nil {
		return nil, nil
	}
	bytes = make([][]int64, net.n)
	msgs = make([][]int64, net.n)
	for i := 0; i < net.n; i++ {
		bytes[i] = append([]int64(nil), net.linkBytes[i*net.n:(i+1)*net.n]...)
		msgs[i] = append([]int64(nil), net.linkMsgs[i*net.n:(i+1)*net.n]...)
	}
	return bytes, msgs
}

// RoundHistory returns a copy of the completed rounds' stats (empty unless
// tracing is enabled).
func (net *Network) RoundHistory() []RoundStats {
	net.mu.Lock()
	defer net.mu.Unlock()
	return append([]RoundStats(nil), net.history...)
}

// Stats is a snapshot of network counters.
//
// Messages counts logical payloads delivered across workers; Attempts counts
// physical transmissions, which exceed Messages exactly by the FaultPlan
// retry traffic (Attempts − Messages = RecoveryStats.DroppedMessages). Bytes
// and WeightedCost meter the wire, i.e. they include retries.
type Stats struct {
	Messages      int64   // logical cross-worker messages
	Attempts      int64   // physical transmissions incl. retries (≥ Messages)
	Bytes         int64   // cross-worker wire bytes incl. retries
	LocalMessages int64   // worker-local deliveries (free)
	Rounds        int64   // synchronisation rounds
	WeightedCost  float64 // Σ wire bytes × linkCost
}

// Stats returns a snapshot of the counters. All fields are read under one
// lock, so the snapshot is internally consistent even mid-round (e.g. Bytes
// is never ahead of the Attempts it belongs to).
func (net *Network) Stats() Stats {
	net.mu.Lock()
	defer net.mu.Unlock()
	return Stats{
		Messages:      net.messages,
		Attempts:      net.attempts,
		Bytes:         net.bytes,
		LocalMessages: net.local,
		Rounds:        net.rounds,
		WeightedCost:  net.cost,
	}
}

// Reset zeroes all counters, including any collected trace (tracing stays
// enabled if it was).
func (net *Network) Reset() {
	net.mu.Lock()
	net.messages = 0
	net.attempts = 0
	net.bytes = 0
	net.local = 0
	net.rounds = 0
	net.cost = 0
	for i := range net.linkBytes {
		net.linkBytes[i] = 0
		net.linkMsgs[i] = 0
	}
	net.cur = RoundStats{}
	net.history = nil
	net.mu.Unlock()
}

func (s Stats) String() string {
	return fmt.Sprintf("net{msgs=%d attempts=%d bytes=%d local=%d rounds=%d cost=%.0f}",
		s.Messages, s.Attempts, s.Bytes, s.LocalMessages, s.Rounds, s.WeightedCost)
}
