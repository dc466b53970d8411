package cluster

import (
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
