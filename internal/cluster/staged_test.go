package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Send is the tests' shorthand for Outbox(from).Send(to, msg).
func (mb *Mailboxes[M]) Send(from, to int, msg M) { mb.outs[from].Send(to, msg) }

// stagedWorkload runs a fixed multi-round workload from a single goroutine:
// every worker sends `per` messages per round with deterministic
// destinations, and endRound closes each round. The message value encodes
// (sender, round, seq).
func stagedWorkload(workers, rounds, per int, send func(from, to int, msg int64), endRound func()) {
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			for i := 0; i < per; i++ {
				send(w, (w+i)%workers, int64(w)<<40|int64(r)<<20|int64(i))
			}
		}
		endRound()
	}
}

// runStaged drives the workload through Mailboxes on net.
func runStaged(net *Network, workers, rounds, per int) {
	mb := NewMailboxes[int64](net, workloadSize)
	stagedWorkload(workers, rounds, per, mb.Send, func() { mb.Exchange() })
}

// runAccounted meters the same workload as the specification of the staged
// metering: one Network.Account per message, one AccountRound per round.
func runAccounted(net *Network, workers, rounds, per int) {
	stagedWorkload(workers, rounds, per, func(from, to int, msg int64) {
		net.Account(from, to, workloadSize(msg))
	}, net.AccountRound)
}

// workloadSize gives each message a deterministic, non-uniform wire size so
// the equivalence test exercises byte accounting beyond flat sizes. All sizes
// are multiples of 4 so products with dyadic link costs are exact in float64
// and the staged batched cost sum is bit-identical to the per-message sum.
func workloadSize(m int64) int64 { return 8 + (m%7)*4 }

// dyadicTopology sets exactly-representable link costs so weighted-cost
// accumulation is exact regardless of summation order.
func dyadicTopology(net *Network) {
	costs := []float64{1, 0.5, 0.25, 2}
	for i := 0; i < net.NumWorkers(); i++ {
		for j := 0; j < net.NumWorkers(); j++ {
			if i != j {
				net.SetLinkCost(i, j, costs[(i+j)%len(costs)])
			}
		}
	}
}

// TestStagedLegacyStatsEquivalence: the staged substrate's deferred batch
// metering must account the exact same Stats — logical messages, attempts,
// wire bytes, weighted cost, rounds, local deliveries — as metering the same
// workload per message with Network.Account on a second network.
func TestStagedLegacyStatsEquivalence(t *testing.T) {
	const workers, rounds, per = 4, 5, 100
	run := func(drive func(*Network, int, int, int)) Stats {
		net := NewNetwork(workers)
		dyadicTopology(net)
		drive(net, workers, rounds, per)
		return net.Stats()
	}
	staged, spec := run(runStaged), run(runAccounted)
	if staged != spec {
		t.Fatalf("staged and per-message accounting diverge:\nstaged:      %+v\nper-message: %+v", staged, spec)
	}
	if staged.Messages == 0 || staged.LocalMessages == 0 || staged.WeightedCost == 0 {
		t.Fatalf("degenerate workload: %+v", staged)
	}
	if staged.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", staged.Rounds, rounds)
	}
}

// TestStagedTraceEquivalence: per-link matrices and per-round series must
// also match the per-message metering.
func TestStagedTraceEquivalence(t *testing.T) {
	const workers, rounds, per = 4, 3, 50
	run := func(drive func(*Network, int, int, int)) (bytes, msgs [][]int64, hist []RoundStats) {
		net := NewNetwork(workers)
		net.EnableTrace()
		dyadicTopology(net)
		drive(net, workers, rounds, per)
		bytes, msgs = net.TrafficMatrix()
		return bytes, msgs, net.RoundHistory()
	}
	sb, sm, sh := run(runStaged)
	pb, pm, ph := run(runAccounted)
	if !reflect.DeepEqual(sb, pb) || !reflect.DeepEqual(sm, pm) {
		t.Fatalf("traffic matrices diverge:\nstaged bytes %v msgs %v\nper-message bytes %v msgs %v", sb, sm, pb, pm)
	}
	if !reflect.DeepEqual(sh, ph) {
		t.Fatalf("round series diverge:\nstaged %+v\nper-message %+v", sh, ph)
	}
}

// TestStagedDeterministicInboxOrder: with concurrent senders, inbox contents
// after Exchange must be byte-identical across runs at every worker count —
// the sender-rank merge makes delivery order independent of scheduling.
func TestStagedDeterministicInboxOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func() [][]int64 {
				net := NewNetwork(workers)
				mb := NewMailboxes[int64](net, nil)
				g := New(workers).NewGang()
				defer g.Close()
				for r := 0; r < 3; r++ {
					g.Run(func(w int) {
						ob := mb.Outbox(w)
						for i := 0; i < 200; i++ {
							ob.Send((w+i)%workers, int64(w)<<32|int64(r)<<16|int64(i))
						}
					})
					mb.Exchange()
				}
				out := make([][]int64, workers)
				for w := 0; w < workers; w++ {
					out[w] = append([]int64(nil), mb.Receive(w)...)
				}
				return out
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatal("inbox order differs between identical runs")
			}
			// canonical order: ascending sender rank, send order within sender
			for w := 0; w < workers; w++ {
				for i := 1; i < len(a[w]); i++ {
					prevSender, curSender := a[w][i-1]>>32, a[w][i]>>32
					if curSender < prevSender {
						t.Fatalf("inbox %d not in sender-rank order at %d: %x after %x", w, i, a[w][i], a[w][i-1])
					}
					if curSender == prevSender && a[w][i]&0xffff <= a[w][i-1]&0xffff {
						t.Fatalf("inbox %d lost send order at %d", w, i)
					}
				}
			}
		})
	}
}

// TestStagedConcurrentSendersRace exercises the staged Send path from
// concurrent sender goroutines at several worker counts (run with -race).
func TestStagedConcurrentSendersRace(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		net := NewNetwork(workers)
		mb := NewMailboxes[int64](net, nil)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ob := mb.Outbox(w)
				for i := 0; i < 500; i++ {
					ob.Send((w+i)%workers, int64(i))
				}
			}(w)
		}
		wg.Wait()
		if got := mb.Exchange(); got != int64(workers*500) {
			t.Fatalf("workers=%d: delivered %d, want %d", workers, got, workers*500)
		}
	}
}

// TestExchangeReturnsLogicalDeliveries: under a lossy FaultPlan, Exchange
// reports delivered payloads, not transmissions — retries are visible only
// as Stats.Attempts − Stats.Messages, which must equal the injector's
// dropped-message count.
func TestExchangeReturnsLogicalDeliveries(t *testing.T) {
	net := NewNetwork(2)
	fi := NewFaultInjector(FaultPlan{DropProb: 0.5, DropSeed: 9})
	net.setFaults(fi)
	mb := NewMailboxes[int](net, nil)
	const sends = 300
	for i := 0; i < sends; i++ {
		mb.Send(0, 1, i)
	}
	if got := mb.Exchange(); got != sends {
		t.Fatalf("Exchange returned %d, want %d logical deliveries", got, sends)
	}
	s := net.Stats()
	if s.Messages != sends {
		t.Fatalf("messages %d, want %d", s.Messages, sends)
	}
	dropped := fi.Stats().DroppedMessages
	if dropped == 0 {
		t.Fatalf("p=0.5 never dropped over %d sends", sends)
	}
	if s.Attempts-s.Messages != dropped {
		t.Fatalf("attempts %d − messages %d ≠ dropped %d", s.Attempts, s.Messages, dropped)
	}
	if len(mb.Receive(1)) != sends {
		t.Fatalf("%d payloads delivered, want %d", len(mb.Receive(1)), sends)
	}
}

// TestStatsSnapshotConsistent: Stats() must be an atomic snapshot — under a
// concurrent stream of uniform 8-byte transfers, every snapshot must satisfy
// Bytes == 8·Attempts and Attempts == Messages exactly. The seed's
// independent atomic loads could tear between the fields mid-Account.
func TestStatsSnapshotConsistent(t *testing.T) {
	net := NewNetwork(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			net.Account(0, 1, 8)
		}
	}()
	for {
		s := net.Stats()
		if s.Bytes != 8*s.Attempts || s.Attempts != s.Messages {
			t.Fatalf("torn snapshot: %+v", s)
		}
		select {
		case <-done:
			s := net.Stats()
			if s.Messages != 20000 || s.Bytes != 160000 {
				t.Fatalf("final stats wrong: %+v", s)
			}
			return
		default:
		}
	}
}

type kv struct{ k, v int64 }

// TestCombinerHoistedIntoMailboxes: the substrate-level combiner must merge
// same-slot messages in the sender's staging buffer — metering and
// delivering only the combined messages, in first-occurrence order.
func TestCombinerHoistedIntoMailboxes(t *testing.T) {
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
		t.Fatalf("delivered %d combined messages, want 10", got)
	}
	in := mb.Receive(1)
	if len(in) != 10 {
		t.Fatalf("inbox has %d messages, want 10", len(in))
	}
	for i, m := range in {
		if m.k != int64(i) || m.v != 10 {
			t.Fatalf("combined message %d = %+v, want key %d sum 10", i, m, i)
		}
	}
	if s := net.Stats(); s.Messages != 10 || s.Bytes != 80 {
		t.Fatalf("combining must meter post-combine traffic: %+v", s)
	}
	// combining state resets between rounds: a second round re-combines fresh
	ob.Send(1, kv{3, 7})
	ob.Send(1, kv{3, 5})
	if got := mb.Exchange(); got != 1 {
		t.Fatalf("second round delivered %d, want 1", got)
	}
	if in := mb.Receive(1); len(in) != 1 || in[0].v != 12 {
		t.Fatalf("second round inbox %+v, want one message with sum 12", in)
	}
}

// TestStagedDropsDrawnAtFlush: drops on the staged path are drawn at flush
// time, but the accounted totals match per-message Network.Account metering
// of the same workload (same seed, same per-message draw count and sizes).
func TestStagedDropsDrawnAtFlush(t *testing.T) {
	const sends = 500
	lossy := func() *Network {
		net := NewNetwork(2)
		net.setFaults(NewFaultInjector(FaultPlan{DropProb: 0.4, DropSeed: 21}))
		return net
	}
	net := lossy()
	mb := NewMailboxes[int64](net, nil)
	for i := 0; i < sends; i++ {
		mb.Send(0, 1, int64(i))
	}
	mb.Exchange()
	staged := net.Stats()
	net = lossy()
	for i := 0; i < sends; i++ {
		net.Account(0, 1, 8)
	}
	net.AccountRound()
	spec := net.Stats()
	// identical rng seed and draw count with uniform sizes ⇒ identical totals
	if staged != spec {
		t.Fatalf("fault accounting diverges:\nstaged      %+v\nper-message %+v", staged, spec)
	}
	if staged.Attempts <= staged.Messages {
		t.Fatalf("no retries drawn at p=0.4: %+v", staged)
	}
}
