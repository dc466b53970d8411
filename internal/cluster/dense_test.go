package cluster

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestDenseCombinerSlotReset: slot tables must reset between rounds — a
// second round re-combines from scratch instead of merging into round-one
// stage indices.
func TestDenseCombinerSlotReset(t *testing.T) {
	net := NewNetwork(2)
	mb := NewMailboxes[kv](net, nil)
	mb.SetDenseCombiner(
		func(dest int) int { return 10 },
		func(m kv) int { return int(m.k) },
		func(a, b kv) kv { return kv{a.k, a.v + b.v} },
	)
	ob := mb.Outbox(0)
	for i := 0; i < 100; i++ {
		ob.Send(1, kv{int64(i % 10), 1})
	}
	if got := mb.Exchange(); got != 10 {
		t.Fatalf("round 1 delivered %d combined messages, want 10", got)
	}
	for i, m := range mb.Receive(1) {
		if m.k != int64(i) || m.v != 10 {
			t.Fatalf("combined message %d = %+v, want key %d sum 10", i, m, i)
		}
	}
	// round 2: fresh combining state
	ob.Send(1, kv{3, 7})
	ob.Send(1, kv{3, 5})
	if got := mb.Exchange(); got != 1 {
		t.Fatalf("round 2 delivered %d, want 1", got)
	}
	if in := mb.Receive(1); len(in) != 1 || in[0].v != 12 {
		t.Fatalf("round 2 inbox %+v, want one message with sum 12", in)
	}
	// round 3: empty round keeps tables consistent
	if got := mb.Exchange(); got != 0 {
		t.Fatalf("round 3 delivered %d, want 0", got)
	}
	ob.Send(1, kv{3, 1})
	if got := mb.Exchange(); got != 1 {
		t.Fatalf("round 4 delivered %d, want 1", got)
	}
}

// TestDenseCombinerSlotFromSentMessages: a combined message's class is the
// class of its first message — the slot is read from the messages Send
// receives, never from a combined result — so a combine that rewrites the
// slot bits still leaves every round's classes intact.
func TestDenseCombinerSlotFromSentMessages(t *testing.T) {
	mb := NewMailboxes[kv](NewNetwork(2), nil)
	mb.SetDenseCombiner(
		func(dest int) int { return 4 },
		func(m kv) int { return int(m.k) },
		func(a, b kv) kv { return kv{(a.k + 1) % 4, a.v + b.v} },
	)
	ob := mb.Outbox(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			ob.Send(1, kv{int64(i % 2), 1})
		}
		if got := mb.Exchange(); got != 2 {
			t.Fatalf("round %d delivered %d messages, want one per class (2)", round, got)
		}
		if in := mb.Receive(1); in[0].v != 3 || in[1].v != 3 {
			t.Fatalf("round %d inbox %+v, want two sums of 3", round, in)
		}
	}
}

// TestDenseCombinerLanesStartEmpty: over 1,000 rounds that mix full rounds
// (every sender hits every slot of every destination, several times), empty
// rounds and single-sender rounds, each round combines from empty lanes:
// every inbox holds exactly this round's sums in first-touch order, and
// after every Exchange no lane keeps a queued slot, an occupancy bit or a
// payload. Slot counts span more than one occupancy word.
func TestDenseCombinerLanesStartEmpty(t *testing.T) {
	const workers, rounds = 3, 1000
	slots := func(dest int) int { return 60 + 7*dest } // 60, 67, 74
	mb := NewMailboxes[kv](NewNetwork(workers), nil)
	mb.SetDenseCombiner(slots, func(m kv) int { return int(m.k) }, func(a, b kv) kv { return kv{a.k, a.v + b.v} })
	rng := rand.New(rand.NewPCG(5, 9))
	for r := 0; r < rounds; r++ {
		var want [workers][]kv
		send := func(from, to, slot int) {
			ob := mb.Outbox(from)
			ob.Send(to, kv{int64(slot), 1})
			for i := range want[to] {
				if want[to][i].k == int64(slot) && int(want[to][i].v>>32) == from {
					want[to][i].v++
					return
				}
			}
			want[to] = append(want[to], kv{int64(slot), int64(from)<<32 | 1})
		}
		switch kind := r % 3; kind {
		case 0: // full: every slot of every lane, in a shuffled order, twice
			for from := 0; from < workers; from++ {
				for to := 0; to < workers; to++ {
					order := rng.Perm(slots(to))
					for _, s := range append(order, order...) {
						send(from, to, s)
					}
				}
			}
		case 1: // empty
		case 2: // one sender, a few slots on one destination
			from, to := rng.IntN(workers), rng.IntN(workers)
			for i := 0; i < 1+rng.IntN(5); i++ {
				send(from, to, rng.IntN(slots(to)))
			}
		}
		var total int64
		for to := range want {
			total += int64(len(want[to]))
		}
		if got := mb.Exchange(); got != total {
			t.Fatalf("round %d: delivered %d, want %d", r, got, total)
		}
		for to := range want {
			in, sl := mb.Receive(to), mb.ReceiveSlots(to)
			if len(in) != len(want[to]) || len(sl) != len(in) {
				t.Fatalf("round %d: inbox %d holds %d messages (%d slots), want %d", r, to, len(in), len(sl), len(want[to]))
			}
			for i, w := range want[to] {
				if in[i] != (kv{w.k, w.v & 0xffffffff}) || sl[i] != int32(w.k) {
					t.Fatalf("round %d: inbox %d message %d = %+v slot %d, want %+v slot %d", r, to, i, in[i], sl[i], kv{w.k, w.v & 0xffffffff}, w.k)
				}
			}
		}
		for from, ob := range mb.outs {
			for to, ln := range ob.lanes {
				if len(ln.slots) != 0 || slices.ContainsFunc(ln.occ, func(x uint64) bool { return x != 0 }) ||
					slices.ContainsFunc(ln.table, func(m kv) bool { return m != kv{} }) {
					t.Fatalf("round %d: lane %d→%d not empty after Exchange", r, from, to)
				}
			}
		}
	}
}

// TestDenseCombinerMisusePanics: the wiring-time contract — all parts
// non-nil, and at most one combiner per mailboxes.
func TestDenseCombinerMisusePanics(t *testing.T) {
	slots := func(dest int) int { return 1 }
	slot := func(m kv) int { return 0 }
	comb := func(a, b kv) kv { return a }
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil slot", func() {
		NewMailboxes[kv](NewNetwork(2), nil).SetDenseCombiner(slots, nil, comb)
	})
	expectPanic("nil combine", func() {
		NewMailboxes[kv](NewNetwork(2), nil).SetDenseCombiner(slots, slot, nil)
	})
	expectPanic("double install", func() {
		mb := NewMailboxes[kv](NewNetwork(2), nil)
		mb.SetDenseCombiner(slots, slot, comb)
		mb.SetDenseCombiner(slots, slot, comb)
	})
}
