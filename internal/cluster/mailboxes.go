package cluster

import "math"

// Mailboxes is a double-buffered, superstep-oriented message store: messages
// sent during round r become visible after Exchange(), matching the BSP
// semantics of Pregel-style systems.
//
// Messages travel through per-sender STAGED outboxes: each sender owns a
// private Outbox with one staging buffer per destination, so Send is a plain
// append — no locks, no atomics, no network metering on the hot path.
// All metering is deferred to Exchange, which flushes each sender's
// per-destination totals to the Network under one lock acquisition per
// sender per round (instead of two lock acquisitions per message), draws any
// FaultPlan drops at flush time with the same per-message semantics, and
// merges staged buffers into the inboxes in sender-rank order — so inbox
// contents are a deterministic function of each sender's send sequence,
// independent of goroutine scheduling. Staging buffers, inbox arrays and
// combiner slot tables are all reused across rounds.
//
// Concurrency contract: each sender rank must be driven by at most one
// goroutine at a time — the natural shape of a BSP engine, where worker w is
// one goroutine and always sends through Outbox(w). Distinct senders are
// fully independent and race-free. Exchange must be called from exactly one
// goroutine at a barrier.
//
// The metering equals one Network.Account per delivered message plus one
// Network.AccountRound per Exchange; staged_test.go holds it to that spec.
type Mailboxes[M any] struct {
	net   *Network
	size  func(M) int64
	inbox [][]M // visible to receivers this round

	outs    []*Outbox[M]
	slot    func(M) int    // combining class of a message at its destination worker
	combine func(a, b M) M // non-nil ⇒ sender-side combining; merges two messages of one class
	// flush scratch, reused every round (one entry per destination)
	fmsgs     []int64
	fattempts []int64
	fbytes    []int64
	fsizes    []int64 // per-message sizes for fault-plan drop draws
}

// Outbox is one sender's private staging area: stage[d] holds the messages
// queued for destination worker d this round. It is owned by the sender's
// goroutine — Send never synchronises — and is drained by Exchange.
type Outbox[M any] struct {
	mb    *Mailboxes[M]
	stage [][]M
	// per destination, nil without a combiner: slotTab[d][s] - base[d] is
	// the index into stage[d] of the message occupying slot s this round,
	// negative when s is empty. Exchange empties every table without
	// touching it by raising base[d] past the round's entries.
	slotTab [][]int32
	base    []int32
}

// NewMailboxes creates mailboxes for n workers on net. size reports
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

// SetDenseCombiner enables sender-side combining (Pregel's combiner, hoisted
// into the runtime so every engine on the substrate gets it): two messages
// queued by the same sender for the same destination worker with equal
// slot(msg) are merged by combine before they ever reach the wire, in send
// order — combine(queued, incoming) — and the class keeps the buffer
// position of its first message. slot(msg) must return an integer in
// [0, slots(dest)) naming the combining class of msg at its destination
// worker: pregel's is localIdx·K + key, the destination-local vertex id
// refined by one of K program keys (quegel's query ids). A combined send is
// one []int32 load and one compare, no hash, which keeps the engine hot path
// allocation-free (DESIGN.md §3.12). slot is evaluated on the messages Send
// receives only, never on a combined result.
//
// The slot tables cost 4·slots(dest) bytes per (sender, destination) pair,
// i.e. 4·K·n bytes per sender for pregel. Call before the first Send.
func (mb *Mailboxes[M]) SetDenseCombiner(slots func(dest int) int, slot func(M) int, combine func(a, b M) M) {
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
		ob.base = make([]int32, n)
		for d := range ob.slotTab {
			ob.slotTab[d] = make([]int32, slots(d))
			ob.base[d] = 1
		}
	}
}

// Outbox returns sender w's private staging handle. Engines hold it for the
// whole run; it is reused across rounds.
func (mb *Mailboxes[M]) Outbox(w int) *Outbox[M] { return mb.outs[w] }

// Send queues msg for destination worker `to`, delivered at the next
// Exchange. It is a lock-free append into the sender's staging buffer (plus
// the combiner merge when one is installed).
func (ob *Outbox[M]) Send(to int, msg M) {
	mb := ob.mb
	if mb.combine != nil {
		tab := ob.slotTab[to]
		s := mb.slot(msg)
		if i := tab[s] - ob.base[to]; i >= 0 {
			ob.stage[to][i] = mb.combine(ob.stage[to][i], msg)
			return
		}
		tab[s] = ob.base[to] + int32(len(ob.stage[to]))
	}
	//lint:allow hotalloc warm-up growth only: staging buffers reach their per-destination high-water mark, then Reset keeps the capacity across rounds
	ob.stage[to] = append(ob.stage[to], msg)
}

// Exchange makes all queued messages visible and clears the previous round's
// inboxes. Call it from exactly one goroutine at a barrier.
//
// It returns the number of LOGICAL deliveries — messages handed to inboxes
// this round, local and cross-worker alike. FaultPlan retransmissions never
// appear in the return value; they are visible as Stats.Attempts − Messages.
//
// Exchange also performs the round's deferred metering: per sender it sums
// per-destination message and byte totals, draws fault-plan drops per
// message (the same accounting as one Network.Account per message), flushes
// the totals to the Network under one lock acquisition, and merges the
// staging buffers into the inboxes in sender-rank order.
func (mb *Mailboxes[M]) Exchange() int64 {
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
			for i := range st {
				st[i] = zero
			}
			ob.stage[d] = st[:0]
			if ob.slotTab != nil {
				// this round's entries are base..base+len(st)-1: raising base
				// past them empties the table in O(1). A table is cleared
				// only when the next round's entries could overflow int32.
				tab := ob.slotTab[d]
				ob.base[d] += int32(len(st))
				if int(ob.base[d]) > math.MaxInt32-len(tab) {
					clear(tab)
					ob.base[d] = 1
				}
			}
		}
		mb.net.flushSender(s, mb.fmsgs, mb.fattempts, mb.fbytes, localMsgs)
		for d := range mb.fmsgs {
			mb.fmsgs[d], mb.fattempts[d], mb.fbytes[d] = 0, 0, 0
		}
	}
	mb.net.AccountRound()
	return delivered
}

// Receive returns the messages visible to worker w this round. The slice is
// valid until the next Exchange. Its order is deterministic: ascending sender rank, send order within a sender.
func (mb *Mailboxes[M]) Receive(w int) []M { return mb.inbox[w] }
