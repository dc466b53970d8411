package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// denseWorkload drives a combining workload where the message value encodes a
// destination-local slot in its low bits: sender w sends `per` messages per
// round, cycling destinations and slots, so every (dest, slot) pair receives
// several combinable messages per round.
func denseWorkload(mb *Mailboxes[int64], workers, rounds, per, slots int) {
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			ob := mb.Outbox(w)
			for i := 0; i < per; i++ {
				slot := (w*7 + i) % slots
				ob.Send((w+i)%workers, int64(slot)<<32|int64(r*per+i))
			}
		}
		mb.Exchange()
	}
}

// TestDenseCombinerMatchesMapCombiner: the dense slot path must produce
// bitwise-identical inboxes AND bitwise-identical network Stats to the
// map-keyed path on the same workload — they are the same combining
// semantics, differing only in how the staging buffer is addressed.
func TestDenseCombinerMatchesMapCombiner(t *testing.T) {
	const slots = 32
	combine := func(a, b int64) int64 {
		// keep the slot bits, sum the payload bits: slot(combined)==slot(a)
		return a&^0xffffffff | (a&0xffffffff + b&0xffffffff)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(dense bool) ([][]int64, Stats) {
				net := NewNetwork(workers)
				dyadicTopology(net)
				mb := NewMailboxes[int64](net, workloadSize)
				if dense {
					mb.SetDenseCombiner(
						func(dest int) int { return slots },
						func(m int64) int { return int(m >> 32) },
						combine,
					)
				} else {
					mb.SetCombiner(func(m int64) int64 { return m >> 32 }, combine)
				}
				denseWorkload(mb, workers, 4, 300, slots)
				in := make([][]int64, workers)
				for w := 0; w < workers; w++ {
					in[w] = append([]int64(nil), mb.Receive(w)...)
				}
				return in, net.Stats()
			}
			di, ds := run(true)
			mi, ms := run(false)
			if ds != ms {
				t.Fatalf("stats diverge:\ndense: %+v\nmap:   %+v", ds, ms)
			}
			if !reflect.DeepEqual(di, mi) {
				t.Fatalf("inbox contents diverge between dense and map combiners")
			}
			if ds.Messages+ds.LocalMessages == 0 {
				t.Fatalf("degenerate workload: %+v", ds)
			}
		})
	}
}

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

// TestDenseCombinerMisusePanics: the dense path inherits SetCombiner's
// wiring-time contract — all parts non-nil, and at most one combiner per
// mailboxes.
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
	expectPanic("double install", func() {
		mb := NewMailboxes[kv](NewNetwork(2), nil)
		mb.SetDenseCombiner(slots, slot, comb)
		mb.SetCombiner(func(m kv) int64 { return m.k }, comb)
	})
	expectPanic("double dense install", func() {
		mb := NewMailboxes[kv](NewNetwork(2), nil)
		mb.SetCombiner(func(m kv) int64 { return m.k }, comb)
		mb.SetDenseCombiner(slots, slot, comb)
	})
}

// benchCombine drives a single-sender combining workload: `slots` distinct
// destination-local targets, 8 sends per target per round — the shape of a
// PageRank superstep where several local vertices share out-neighbors on one
// destination worker.
func benchCombine(b *testing.B, dense bool) {
	const slots = 1 << 12
	net := NewNetwork(2)
	mb := NewMailboxes[int64](net, nil)
	combine := func(a, b int64) int64 { return a&^0xffffffff | (a&0xffffffff + b&0xffffffff) }
	if dense {
		mb.SetDenseCombiner(
			func(dest int) int { return slots },
			func(m int64) int { return int(m >> 32) },
			combine,
		)
	} else {
		mb.SetCombiner(func(m int64) int64 { return m >> 32 }, combine)
	}
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

func BenchmarkSendDenseCombiner(b *testing.B) { benchCombine(b, true) }
func BenchmarkSendMapCombiner(b *testing.B)   { benchCombine(b, false) }
