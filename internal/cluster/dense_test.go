package cluster

import (
	"math"
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
// slot bits still resets the right table entry at Exchange.
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

// TestDenseCombinerTableWraps: a lane whose next round could overflow the
// int32 table entries clears its table and starts again, combining as
// before on both sides of the wrap.
func TestDenseCombinerTableWraps(t *testing.T) {
	const slots = 8
	mb := NewMailboxes[kv](NewNetwork(2), nil)
	mb.SetDenseCombiner(
		func(dest int) int { return slots },
		func(m kv) int { return int(m.k) },
		func(a, b kv) kv { return kv{a.k, a.v + b.v} },
	)
	ob := mb.Outbox(0)
	ob.base[1] = math.MaxInt32 - 3*slots
	for round := 0; round < 6; round++ {
		for i := 0; i < 4*slots; i++ {
			ob.Send(1, kv{int64(i % slots), 1})
		}
		if got := mb.Exchange(); got != slots {
			t.Fatalf("round %d (base %d) delivered %d messages, want %d", round, ob.base[1], got, slots)
		}
		for i, m := range mb.Receive(1) {
			if m.k != int64(i) || m.v != 4 {
				t.Fatalf("round %d: message %d = %+v, want key %d sum 4", round, i, m, i)
			}
		}
	}
	if ob.base[1] > slots*6 {
		t.Fatalf("base %d: the table never wrapped", ob.base[1])
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

// BenchmarkSendDenseCombiner drives a single-sender combining workload: `slots` distinct
// destination-local targets, 8 sends per target per round — the shape of a
// PageRank superstep where several local vertices share out-neighbors on one
// destination worker.
func BenchmarkSendDenseCombiner(b *testing.B) {
	const slots = 1 << 12
	net := NewNetwork(2)
	mb := NewMailboxes[int64](net, nil)
	combine := func(a, b int64) int64 { return a&^0xffffffff | (a&0xffffffff + b&0xffffffff) }
	mb.SetDenseCombiner(
		func(dest int) int { return slots },
		func(m int64) int { return int(m >> 32) },
		combine,
	)
	ob := mb.Outbox(0)
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		n := min(b.N-sent, slots*8)
		for i := 0; i < n; i++ {
			ob.Send(1, int64(i%slots)<<32|1)
		}
		mb.Exchange()
		sent += n
	}
}
