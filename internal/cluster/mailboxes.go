package cluster

// Mailboxes is a double-buffered, superstep-oriented message store: messages
// sent during round r become visible after Exchange(), matching the BSP
// semantics of Pregel-style systems.
//
// A message is addressed by its destination worker and its SLOT there: an
// integer the destination understands without a lookup (pregel's is
// localIdx·K + key, the destination-local vertex id refined by one of K
// program keys). The slot travels beside the payload into the inbox, so
// receivers read it back with ReceiveSlots.
//
// Messages travel through per-sender STAGED outboxes: each sender owns a
// private Outbox with one lane per destination, so SendSlot is a plain
// append (or, with a combiner, an in-place merge) — no locks, no atomics,
// no network metering on the hot path. All metering is deferred to
// Exchange, which flushes each sender's per-destination totals to the
// Network under one lock acquisition per sender per round (instead of two
// lock acquisitions per message), draws any FaultPlan drops at flush time
// with the same per-message semantics, and merges the lanes into the
// inboxes in sender-rank order — so inbox contents are a deterministic
// function of each sender's send sequence, independent of goroutine
// scheduling. Lanes and inbox arrays are reused across rounds.
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
	inbox [][]M     // visible to receivers this round
	slots [][]int32 // slots[w][i] is the slot inbox[w][i] was sent to

	outs []*Outbox[M]
	slot func(M) int // Send's slot of a message; non-nil ⇔ a combiner is installed
	// flush scratch, reused every round (one entry per destination)
	fmsgs     []int64
	fattempts []int64
	fbytes    []int64
	fsizes    []int64 // per-message sizes for fault-plan drop draws
}

// Outbox is one sender's private staging area: lanes[d] holds the messages
// queued for destination worker d this round. It is owned by the sender's
// goroutine — SendSlot never synchronises — and is drained by Exchange.
type Outbox[M any] struct {
	mb      *Mailboxes[M]
	combine func(a, b M) M // non-nil ⇒ sender-side combining; merges two messages of one slot
	lanes   []lane[M]
}

// lane is one (sender, destination) pair's staging area. An uncombined lane
// queues (msg, slot) pairs in send order in msgs and slots. A combined lane
// holds at most one message per slot: table[s] is slot s's payload while bit
// s of occ is set, and slots lists the occupied slots in first-touch order.
// slots is allocated at the lane's slot count, so it never grows.
type lane[M any] struct {
	msgs  []M
	slots []int32
	table []M
	occ   []uint64
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
		slots:     make([][]int32, n),
		outs:      make([]*Outbox[M], n),
		fmsgs:     make([]int64, n),
		fattempts: make([]int64, n),
		fbytes:    make([]int64, n),
	}
	for w := range mb.outs {
		mb.outs[w] = &Outbox[M]{mb: mb, lanes: make([]lane[M], n)}
	}
	return mb
}

// SetDenseCombiner enables sender-side combining (Pregel's combiner, hoisted
// into the runtime so every engine on the substrate gets it): two messages
// queued by the same sender for the same destination worker and slot are
// merged by combine before they ever reach the wire, in send order —
// combine(queued, incoming) — and the slot keeps the inbox position of its
// first message. Slots at destination dest lie in [0, slots(dest)). Send
// addresses a message to slot(msg); SendSlot takes the slot from the caller
// and never calls slot. A combined send is a bitset test and one load and
// store of the lane's payload table, no hash, which keeps the engine hot
// path allocation-free (DESIGN.md §3.12).
//
// Each (sender, destination) lane costs (sizeof(M) + 4)·slots(dest) bytes
// plus a one-bit-per-slot occupancy set, i.e. about (sizeof(M) + 4)·K·n
// bytes per sender for pregel. Call before the first Send.
func (mb *Mailboxes[M]) SetDenseCombiner(slots func(dest int) int, slot func(M) int, combine func(a, b M) M) {
	if slots == nil || slot == nil || combine == nil {
		//lint:allow panicpolicy nil combiner parts are a programmer error at wiring time, before any run starts
		panic("cluster: SetDenseCombiner needs slots, slot and combine functions")
	}
	if mb.slot != nil {
		//lint:allow panicpolicy double combiner installation is a wiring-time programmer error
		panic("cluster: mailboxes already have a combiner")
	}
	mb.slot = slot
	for _, ob := range mb.outs {
		ob.combine = combine
		for d := range ob.lanes {
			k := slots(d)
			ob.lanes[d] = lane[M]{
				slots: make([]int32, 0, k),
				table: make([]M, k),
				occ:   make([]uint64, (k+63)/64),
			}
		}
	}
}

// Outbox returns sender w's private staging handle. Engines hold it for the
// whole run; it is reused across rounds.
func (mb *Mailboxes[M]) Outbox(w int) *Outbox[M] { return mb.outs[w] }

// Send queues msg for destination worker `to`, delivered at the next
// Exchange: SendSlot(to, slot(msg), msg) with the combiner's slot function,
// or slot 0 on mailboxes without a combiner.
func (ob *Outbox[M]) Send(to int, msg M) {
	s := 0
	if ob.combine != nil {
		s = ob.mb.slot(msg)
	}
	ob.SendSlot(to, s, msg)
}

// SendSlot queues msg for slot `slot` of destination worker `to`, delivered
// at the next Exchange. Without a combiner it is a lock-free append to the
// sender's lane; with one, a message to an occupied slot is merged into the
// queued one in place, and the first message to a slot claims it.
func (ob *Outbox[M]) SendSlot(to, slot int, msg M) {
	ln := &ob.lanes[to]
	if ob.combine == nil {
		//lint:allow hotalloc warm-up growth only: uncombined lanes reach their per-destination high-water mark, then Exchange keeps the capacity across rounds
		ln.msgs, ln.slots = append(ln.msgs, msg), append(ln.slots, int32(slot))
		return
	}
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if ln.occ[word]&bit != 0 {
		ln.table[slot] = ob.combine(ln.table[slot], msg)
		return
	}
	ln.occ[word] |= bit
	ln.table[slot] = msg
	n := len(ln.slots)
	ln.slots = ln.slots[:n+1] // within capacity: each slot is claimed once per round
	ln.slots[n] = int32(slot)
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
// lanes into the inboxes in sender-rank order.
func (mb *Mailboxes[M]) Exchange() int64 {
	// recycle inboxes: zero before truncating so pointer-bearing M from last
	// round does not stay reachable through the retained backing arrays
	for w := range mb.inbox {
		clear(mb.inbox[w])
		mb.inbox[w] = mb.inbox[w][:0]
		mb.slots[w] = mb.slots[w][:0]
	}
	fi := mb.net.faults.Load()
	drops := fi != nil && fi.plan.DropProb > 0
	var delivered int64
	for s, ob := range mb.outs {
		var localMsgs int64
		for d := range ob.lanes {
			ln := &ob.lanes[d]
			if len(ln.slots) == 0 {
				continue
			}
			// deterministic merge: senders are visited in rank order, and
			// within a sender messages keep their lane order
			start := len(mb.inbox[d])
			mb.inbox[d] = ln.flush(mb.inbox[d])
			mb.slots[d] = append(mb.slots[d], ln.slots...)
			ln.slots = ln.slots[:0]
			st := mb.inbox[d][start:]
			m := int64(len(st))
			delivered += m
			if d == s {
				localMsgs += m
				continue
			}
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
		mb.net.flushSender(s, mb.fmsgs, mb.fattempts, mb.fbytes, localMsgs)
		for d := range mb.fmsgs {
			mb.fmsgs[d], mb.fattempts[d], mb.fbytes[d] = 0, 0, 0
		}
	}
	mb.net.AccountRound()
	return delivered
}

// flush appends the lane's messages to in, in lane order, and empties the
// lane's payloads; the caller copies and truncates ln.slots.
func (ln *lane[M]) flush(in []M) []M {
	if ln.table == nil {
		in = append(in, ln.msgs...)
		clear(ln.msgs)
		ln.msgs = ln.msgs[:0]
		return in
	}
	var zero M
	for _, s := range ln.slots {
		in = append(in, ln.table[s])
		ln.table[s] = zero
		ln.occ[s>>6] = 0 // every set bit belongs to a listed slot
	}
	return in
}

// Receive returns the messages visible to worker w this round. The slice is
// valid until the next Exchange. Its order is deterministic: ascending
// sender rank, then each sender's lane order — send order on uncombined
// lanes, first-touch order of the slots on combined ones.
func (mb *Mailboxes[M]) Receive(w int) []M { return mb.inbox[w] }

// ReceiveSlots returns the slots of Receive(w)'s messages, index for index.
// Like Receive, it is valid until the next Exchange.
func (mb *Mailboxes[M]) ReceiveSlots(w int) []int32 { return mb.slots[w] }
