package cluster

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// benchComms drives an all-to-all message workload — every worker sends
// round-robin to all destinations, Exchange at a round boundary — and
// reports ns per message. This is the PageRank-style communication pattern
// with the compute stripped away, so `go test -bench Send ./internal/cluster`
// shows the per-message cost of the staged append without the full harness.
func benchComms(b *testing.B, workers, msgsPerRound int) {
	net := NewNetwork(workers)
	mb := NewMailboxes[int64](net, nil)
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		n := msgsPerRound
		if b.N-sent < n {
			n = b.N - sent
		}
		per := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					mb.Send(w, (w+i)%workers, int64(i))
				}
			}(w)
		}
		wg.Wait()
		mb.Exchange()
		sent += per * workers
	}
}

func BenchmarkSendStaged(b *testing.B)  { benchComms(b, 8, 1<<16) }
func BenchmarkSendStaged1(b *testing.B) { benchComms(b, 1, 1<<16) }

// pageRankTraffic is one PageRank-shaped superstep of sends: every sender
// sends one message per arc of a skewed synthetic graph of n vertices with
// `degree` arcs per vertex, to vertices placed round-robin over the workers
// (destination = v % workers, slot = v / workers). Payloads carry their slot
// in the high 32 bits so Send's slot function can find it.
type pageRankTraffic struct {
	workers, slotsPerDest int
	to                    [][]int32 // per sender: destination worker of each send
	slot                  [][]int32 // per sender: destination slot of each send
}

func newPageRankTraffic(workers, n, degree int) *pageRankTraffic {
	tr := &pageRankTraffic{
		workers: workers, slotsPerDest: (n + workers - 1) / workers,
		to: make([][]int32, workers), slot: make([][]int32, workers),
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for u := 0; u < n; u++ {
		s := u % workers
		for i := 0; i < degree; i++ {
			// the square skews in-degrees towards low ids, as R-MAT does
			f := rng.Float64()
			v := int(f * f * float64(n))
			tr.to[s] = append(tr.to[s], int32(v%workers))
			tr.slot[s] = append(tr.slot[s], int32(v/workers))
		}
	}
	return tr
}

func (tr *pageRankTraffic) mailboxes(combined bool) *Mailboxes[int64] {
	mb := NewMailboxes[int64](NewNetwork(tr.workers), nil)
	if combined {
		mb.SetDenseCombiner(
			func(int) int { return tr.slotsPerDest },
			func(m int64) int { return int(m >> 32) },
			func(a, b int64) int64 { return a + b&0xffffffff },
		)
	}
	return mb
}

// round sends every sender's stream, through SendSlot or Send, then
// exchanges; it returns the number of sends.
func (tr *pageRankTraffic) round(mb *Mailboxes[int64], bySlot bool) int {
	sends := 0
	for s := range tr.to {
		ob := mb.Outbox(s)
		to, slot := tr.to[s], tr.slot[s]
		for i := range to {
			if bySlot {
				ob.SendSlot(int(to[i]), int(slot[i]), 1)
			} else {
				ob.Send(int(to[i]), int64(slot[i])<<32|1)
			}
		}
		sends += len(to)
	}
	mb.Exchange()
	return sends
}

// BenchmarkSendCombined times PageRank-shaped combined traffic (2 workers,
// 2^14 vertices, 16 arcs each) through SendSlot, the engine's path, and
// through Send, which computes each slot with the combiner's slot function;
// one op is a round of sends plus its Exchange, reported per message.
func BenchmarkSendCombined(b *testing.B) {
	tr := newPageRankTraffic(2, 1<<14, 16)
	for _, bySlot := range []bool{true, false} {
		name := "Send"
		if bySlot {
			name = "SendSlot"
		}
		b.Run(name, func(b *testing.B) {
			mb := tr.mailboxes(true)
			tr.round(mb, bySlot) // warm-up: inbox capacity
			b.ReportAllocs()
			b.ResetTimer()
			sends := 0
			for i := 0; i < b.N; i++ {
				sends += tr.round(mb, bySlot)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sends), "ns/msg")
		})
	}
}

// TestSteadyStateSendExchangeAllocs: once lanes and inboxes have reached
// their high-water marks, a round of SendSlot plus Exchange allocates
// nothing, on combined and uncombined lanes alike.
func TestSteadyStateSendExchangeAllocs(t *testing.T) {
	tr := newPageRankTraffic(3, 1<<10, 8)
	for _, combined := range []bool{true, false} {
		mb := tr.mailboxes(combined)
		tr.round(mb, true)
		if a := testing.AllocsPerRun(10, func() { tr.round(mb, true) }); a != 0 {
			t.Errorf("combined=%v: a steady-state round allocates %.1f times, want 0", combined, a)
		}
	}
}
