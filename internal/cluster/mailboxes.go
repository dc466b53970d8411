package cluster

import (
	"sync"
	"sync/atomic"
)

// Mailboxes is a double-buffered, superstep-oriented message store: messages
// sent during round r become visible after Exchange(), matching the BSP
// semantics of Pregel-style systems.
//
// The default implementation is the per-sender STAGED substrate: each sender
// owns a private Outbox with one staging buffer per destination, so Send is a
// plain append — no locks, no atomics, no network metering on the hot path.
// All metering is deferred to Exchange, which flushes each sender's
// per-destination totals to the Network under one lock acquisition per
// sender per round (instead of two lock acquisitions per message), draws any
// FaultPlan drops at flush time with the same per-message semantics, and
// merges staged buffers into the inboxes in sender-rank order — so inbox
// contents are a deterministic function of each sender's send sequence,
// independent of goroutine scheduling. Staging buffers, inbox arrays and
// combiner index maps are all reused across rounds.
//
// Concurrency contract (staged mode): each sender rank must be driven by at
// most one goroutine at a time — the natural shape of a BSP engine, where
// worker w is one goroutine and always sends as `from == w`. Distinct senders
// are fully independent and race-free. Exchange must be called from exactly
// one goroutine at a barrier, as before.
//
// NewMailboxesLegacy keeps the seed's per-message path (per-destination
// mutex on Send, per-message Network.Account) for benchmarking and for
// callers that share one sender rank between goroutines. Both modes produce
// identical Stats on the same workload.
type Mailboxes[M any] struct {
	net    *Network
	size   func(M) int64
	inbox  [][]M // visible to receivers this round
	legacy bool

	// staged mode
	outs    []*Outbox[M]
	key     func(M) int64  // non-nil ⇒ map-keyed sender-side combining enabled
	slot    func(M) int    // non-nil ⇒ dense slot-indexed combining enabled
	combine func(a, b M) M // merges two messages with equal key/slot and destination
	// flush scratch, reused every round (one entry per destination)
	fmsgs     []int64
	fattempts []int64
	fbytes    []int64
	fsizes    []int64 // per-message sizes for fault-plan drop draws

	// legacy mode
	mu      []sync.Mutex
	outbox  [][]M // being filled for next round
	pending atomic.Int64
}

// Outbox is one sender's private staging area: stage[d] holds the messages
// queued for destination worker d this round. It is owned by the sender's
// goroutine — Send never synchronises — and is drained by Exchange.
type Outbox[M any] struct {
	mb    *Mailboxes[M]
	stage [][]M
	// per destination: combiner key → index into stage[d]; nil when the
	// mailboxes have no combiner. Maps are cleared (not reallocated) at flush.
	keyIdx []map[int64]int
	// per destination: dense slot table for SetDenseCombiner — slotTab[d][s]
	// is the index into stage[d] of the message occupying slot s, or -1.
	// Touched entries are reset (not reallocated) at flush.
	slotTab [][]int32
}

// NewMailboxes creates staged mailboxes for n workers on net. size reports
// the wire size of a message for metering; pass nil to meter a flat 8
// bytes/message.
func NewMailboxes[M any](net *Network, size func(M) int64) *Mailboxes[M] {
	n := net.n
	if size == nil {
		size = func(M) int64 { return 8 }
	}
	mb := &Mailboxes[M]{
		net:       net,
		size:      size,
		inbox:     make([][]M, n),
		outs:      make([]*Outbox[M], n),
		fmsgs:     make([]int64, n),
		fattempts: make([]int64, n),
		fbytes:    make([]int64, n),
	}
	for w := range mb.outs {
		mb.outs[w] = &Outbox[M]{mb: mb, stage: make([][]M, n)}
	}
	return mb
}

// NewMailboxesLegacy creates mailboxes on the seed's per-message path: Send
// takes a per-destination mutex and meters each message on the network
// individually. It exists as the contention baseline for the staged
// substrate (BenchmarkSendLegacy, TestStagedLegacyStatsEquivalence) and for
// callers that need multiple goroutines sharing one sender rank.
func NewMailboxesLegacy[M any](net *Network, size func(M) int64) *Mailboxes[M] {
	n := net.n
	if size == nil {
		size = func(M) int64 { return 8 }
	}
	return &Mailboxes[M]{
		net:    net,
		size:   size,
		legacy: true,
		inbox:  make([][]M, n),
		mu:     make([]sync.Mutex, n),
		outbox: make([][]M, n),
	}
}

// SetCombiner enables sender-side combining (Pregel's combiner, hoisted into
// the runtime so every engine on the substrate gets it): two messages queued
// by the same sender for the same destination worker with equal key(msg) are
// merged by combine before they ever reach the wire, in send order —
// combine(queued, incoming). Engines encode their combining granularity in
// the key (pregel: destination vertex; quegel: destination vertex + query id).
//
// Call it before the first Send; combining requires the staged substrate and
// panics on legacy mailboxes.
func (mb *Mailboxes[M]) SetCombiner(key func(M) int64, combine func(a, b M) M) {
	if mb.legacy {
		//lint:allow panicpolicy documented API misuse (see doc comment); only reachable by wiring a combiner onto the legacy benchmark baseline
		panic("cluster: combiners require staged mailboxes (NewMailboxes)")
	}
	if key == nil || combine == nil {
		//lint:allow panicpolicy nil combiner halves are a programmer error at wiring time, before any run starts
		panic("cluster: SetCombiner needs both a key and a combine function")
	}
	if mb.combine != nil {
		//lint:allow panicpolicy double combiner installation is a wiring-time programmer error
		panic("cluster: mailboxes already have a combiner")
	}
	mb.key = key
	mb.combine = combine
	n := len(mb.inbox)
	for _, ob := range mb.outs {
		ob.keyIdx = make([]map[int64]int, n)
		for d := range ob.keyIdx {
			ob.keyIdx[d] = make(map[int64]int)
		}
	}
}

// SetDenseCombiner enables sender-side combining addressed by a dense slot
// index instead of a hashed key: slot(msg) must return a stable integer in
// [0, slots(dest)) identifying the combining class of msg at its destination
// worker — typically the destination-local vertex id, with slots(dest) the
// number of vertices dest owns. Combining semantics are identical to
// SetCombiner (first-occurrence order preserved, combine(queued, incoming)
// in send order), but the per-send map hash + lookup is replaced by one
// []int32 load, which is what makes the engine hot path allocation- and
// hash-free (DESIGN.md §3.12). slot must agree for messages that combine:
// slot(combine(a,b)) == slot(a) == slot(b).
//
// The slot tables cost 4·slots(dest) bytes per (sender, destination) pair —
// the dense-id trade: engines with compact per-destination id spaces
// (pregel's owned-vertex lists) use this path; engines whose combining key
// space is sparse or unbounded (quegel's (vertex, query id) pairs) stay on
// SetCombiner. Call before the first Send; staged substrate only.
func (mb *Mailboxes[M]) SetDenseCombiner(slots func(dest int) int, slot func(M) int, combine func(a, b M) M) {
	if mb.legacy {
		//lint:allow panicpolicy documented API misuse; only reachable by wiring a combiner onto the legacy benchmark baseline
		panic("cluster: combiners require staged mailboxes (NewMailboxes)")
	}
	if slots == nil || slot == nil || combine == nil {
		//lint:allow panicpolicy nil combiner parts are a programmer error at wiring time, before any run starts
		panic("cluster: SetDenseCombiner needs slots, slot and combine functions")
	}
	if mb.combine != nil {
		//lint:allow panicpolicy double combiner installation is a wiring-time programmer error
		panic("cluster: mailboxes already have a combiner")
	}
	mb.slot = slot
	mb.combine = combine
	n := len(mb.inbox)
	for _, ob := range mb.outs {
		ob.slotTab = make([][]int32, n)
		for d := range ob.slotTab {
			tab := make([]int32, slots(d))
			for i := range tab {
				tab[i] = -1
			}
			ob.slotTab[d] = tab
		}
	}
}

// Outbox returns sender w's private staging handle. Engines hold it for the
// whole run; it is reused across rounds.
func (mb *Mailboxes[M]) Outbox(w int) *Outbox[M] {
	if mb.legacy {
		//lint:allow panicpolicy documented API misuse; legacy mailboxes exist only as the benchmark baseline/equivalence oracle
		panic("cluster: legacy mailboxes have no outboxes; use Send")
	}
	return mb.outs[w]
}

// Send queues msg for destination worker `to`, delivered at the next
// Exchange. It is a lock-free append into the sender's staging buffer (plus
// the combiner merge when one is installed).
func (ob *Outbox[M]) Send(to int, msg M) {
	mb := ob.mb
	if mb.slot != nil {
		// dense path: one array load replaces the hash + map lookup
		tab := ob.slotTab[to]
		s := mb.slot(msg)
		if i := tab[s]; i >= 0 {
			ob.stage[to][i] = mb.combine(ob.stage[to][i], msg)
			return
		}
		tab[s] = int32(len(ob.stage[to]))
	} else if mb.combine != nil {
		k := mb.key(msg)
		if i, ok := ob.keyIdx[to][k]; ok {
			ob.stage[to][i] = mb.combine(ob.stage[to][i], msg)
			return
		}
		ob.keyIdx[to][k] = len(ob.stage[to])
	}
	//lint:allow hotalloc warm-up growth only: staging buffers reach their per-destination high-water mark, then Reset keeps the capacity across rounds
	ob.stage[to] = append(ob.stage[to], msg)
}

// Send queues msg from worker `from` to worker `to` for the next round. On
// staged mailboxes it is Outbox(from).Send(to, msg) and inherits its
// concurrency contract (one goroutine per sender rank); on legacy mailboxes
// it meters and locks per message and tolerates arbitrary sharing.
func (mb *Mailboxes[M]) Send(from, to int, msg M) {
	if !mb.legacy {
		mb.outs[from].Send(to, msg)
		return
	}
	mb.net.Account(from, to, mb.size(msg))
	mb.mu[to].Lock()
	mb.outbox[to] = append(mb.outbox[to], msg)
	mb.mu[to].Unlock()
	mb.pending.Add(1)
}

// Exchange makes all queued messages visible and clears the previous round's
// inboxes. Call it from exactly one goroutine at a barrier.
//
// It returns the number of LOGICAL deliveries — messages handed to inboxes
// this round, local and cross-worker alike. FaultPlan retransmissions never
// appear in the return value; they are visible as Stats.Attempts − Messages.
//
// On the staged substrate Exchange also performs the round's deferred
// metering: per sender it sums per-destination message and byte totals, draws
// fault-plan drops per message (identical accounting to the per-message
// path), flushes the totals to the Network under one lock acquisition, and
// merges the staging buffers into the inboxes in sender-rank order.
func (mb *Mailboxes[M]) Exchange() int64 {
	if mb.legacy {
		return mb.exchangeLegacy()
	}
	var zero M
	// recycle inboxes: zero before truncating so pointer-bearing M from last
	// round does not stay reachable through the retained backing arrays
	for w := range mb.inbox {
		in := mb.inbox[w]
		for i := range in {
			in[i] = zero
		}
		mb.inbox[w] = in[:0]
	}
	fi := mb.net.faults.Load()
	drops := fi != nil && fi.plan.DropProb > 0
	var delivered int64
	for s, ob := range mb.outs {
		var localMsgs int64
		for d := range ob.stage {
			st := ob.stage[d]
			if len(st) == 0 {
				continue
			}
			m := int64(len(st))
			delivered += m
			if d == s {
				localMsgs += m
			} else {
				var bytes int64
				if drops {
					mb.fsizes = mb.fsizes[:0]
					for _, msg := range st {
						sz := mb.size(msg)
						bytes += sz
						mb.fsizes = append(mb.fsizes, sz)
					}
					nd, retryBytes := fi.drawDropsBatch(mb.fsizes)
					mb.fattempts[d] = m + nd
					mb.fbytes[d] = bytes + retryBytes
				} else {
					for _, msg := range st {
						bytes += mb.size(msg)
					}
					mb.fattempts[d] = m
					mb.fbytes[d] = bytes
				}
				mb.fmsgs[d] = m
			}
			// deterministic merge: senders are visited in rank order, and
			// within a sender messages keep their send order
			mb.inbox[d] = append(mb.inbox[d], st...)
			if ob.slotTab != nil {
				// reset only the touched slots: each staged message names its
				// own slot, so the reset is O(messages), never O(slots)
				tab := ob.slotTab[d]
				for i := range st {
					tab[mb.slot(st[i])] = -1
					st[i] = zero
				}
			} else {
				for i := range st {
					st[i] = zero
				}
				if ob.keyIdx != nil {
					clear(ob.keyIdx[d])
				}
			}
			ob.stage[d] = st[:0]
		}
		mb.net.flushSender(s, mb.fmsgs, mb.fattempts, mb.fbytes, localMsgs)
		for d := range mb.fmsgs {
			mb.fmsgs[d], mb.fattempts[d], mb.fbytes[d] = 0, 0, 0
		}
	}
	mb.net.AccountRound()
	return delivered
}

func (mb *Mailboxes[M]) exchangeLegacy() int64 {
	delivered := mb.pending.Swap(0)
	var zero M
	for w := range mb.inbox {
		in := mb.inbox[w]
		// zero before truncating: the backing array is recycled as next
		// round's outbox, and for pointer-bearing M the stale elements would
		// otherwise keep last round's payloads reachable
		for i := range in {
			in[i] = zero
		}
		mb.inbox[w] = in[:0]
		mb.inbox[w], mb.outbox[w] = mb.outbox[w], mb.inbox[w]
	}
	mb.net.AccountRound()
	return delivered
}

// Receive returns the messages visible to worker w this round. The slice is
// valid until the next Exchange. On the staged substrate its order is
// deterministic: ascending sender rank, send order within a sender.
func (mb *Mailboxes[M]) Receive(w int) []M { return mb.inbox[w] }
