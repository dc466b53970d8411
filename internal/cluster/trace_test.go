package cluster

import (
	"strings"
	"sync"
	"testing"
)

// TestSetLinkCostConcurrentWithAccount exercises the topology-reconfiguration
// path: SetLinkCost must synchronise with concurrent Account/Send readers of
// the link-cost matrix. Against the unguarded seed implementation this test
// fails under -race.
func TestSetLinkCostConcurrentWithAccount(t *testing.T) {
	net := NewNetwork(4)
	mb := NewMailboxes[int](net, nil)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			net.SetLinkCost(0, 1, float64(i%7)+0.5)
			net.SetLinkCost(2, 3, 0.05)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			net.Account(0, 1, 8)
			_ = net.LinkCost(2, 3)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			mb.Send(2, 3, i)
		}
	}()
	wg.Wait()
	mb.Exchange() // staged sends meter at flush
	if got := net.Stats().Messages; got != 1000 {
		t.Fatalf("messages = %d, want 1000", got)
	}
}

func TestLinkBoundsChecked(t *testing.T) {
	net := NewNetwork(2)
	for _, fn := range []func(){
		func() { net.SetLinkCost(0, 2, 1) },
		func() { net.SetLinkCost(-1, 0, 1) },
		func() { net.Account(0, 5, 8) },
		func() { net.LinkCost(3, 0) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected out-of-range panic")
				}
				if !strings.Contains(r.(string), "out of range") {
					t.Fatalf("unclear panic message: %v", r)
				}
			}()
			fn()
		}()
	}
}

// TestExchangeReleasesMessageMemory: recycled inbox backing arrays must not
// keep pointers to last round's message payloads alive.
func TestExchangeReleasesMessageMemory(t *testing.T) {
	net := NewNetwork(2)
	mb := NewMailboxes[*int](net, nil)
	mb.Send(0, 1, new(int))
	mb.Exchange()
	in := mb.Receive(1)
	if len(in) != 1 || in[0] == nil {
		t.Fatalf("message not delivered: %v", in)
	}
	mb.Exchange() // in's backing array becomes next round's outbox
	if in[:1][0] != nil {
		t.Fatal("stale pointer retained in recycled mailbox backing array")
	}
}

func TestNetworkTraceMatrixAndHistory(t *testing.T) {
	net := NewNetwork(3)
	net.EnableTrace()
	if !net.traceOn.Load() {
		t.Fatal("tracing not enabled")
	}
	net.SetLinkCost(0, 1, 0.5)
	net.Account(0, 1, 100)
	net.Account(0, 1, 50)
	net.Account(1, 2, 10)
	net.Account(2, 2, 999) // local
	net.AccountRound()
	net.Account(2, 0, 7)
	net.AccountRound()

	bytes, msgs := net.TrafficMatrix()
	if bytes[0][1] != 150 || msgs[0][1] != 2 {
		t.Fatalf("link 0->1: bytes=%d msgs=%d", bytes[0][1], msgs[0][1])
	}
	if bytes[1][2] != 10 || bytes[2][0] != 7 {
		t.Fatalf("matrix wrong: %v", bytes)
	}
	if bytes[2][2] != 0 {
		t.Fatal("local traffic must not appear on a link")
	}
	hist := net.RoundHistory()
	if len(hist) != 2 {
		t.Fatalf("history has %d rounds, want 2", len(hist))
	}
	r0 := hist[0]
	if r0.Round != 0 || r0.Messages != 3 || r0.Bytes != 160 || r0.LocalMessages != 1 {
		t.Fatalf("round 0 stats = %+v", r0)
	}
	if want := 100*0.5 + 50*0.5 + 10; r0.WeightedCost != want {
		t.Fatalf("round 0 cost = %f, want %f", r0.WeightedCost, want)
	}
	if hist[1].Bytes != 7 || hist[1].Round != 1 {
		t.Fatalf("round 1 stats = %+v", hist[1])
	}

	net.Reset()
	bytes, _ = net.TrafficMatrix()
	if bytes[0][1] != 0 || len(net.RoundHistory()) != 0 {
		t.Fatal("Reset did not clear the trace")
	}
	if !net.traceOn.Load() {
		t.Fatal("Reset must keep tracing enabled")
	}
}

func TestUntracedNetworkHasNoMatrix(t *testing.T) {
	net := NewNetwork(2)
	net.Account(0, 1, 8)
	net.AccountRound()
	if b, m := net.TrafficMatrix(); b != nil || m != nil {
		t.Fatal("matrix allocated without EnableTrace")
	}
	if len(net.RoundHistory()) != 0 {
		t.Fatal("history recorded without EnableTrace")
	}
}

func TestWorkerBusyMeters(t *testing.T) {
	c := New(3)
	c.AddBusy(1, 2.5)
	c.AddBusy(1, 0.5)
	g := c.NewGang()
	defer g.Close()
	g.Run(func(w int) {}) // wall-time credit is ≥ 0
	busy := c.WorkerBusy()
	if len(busy) != 3 {
		t.Fatalf("busy has %d entries", len(busy))
	}
	if busy[1] < 3.0 {
		t.Fatalf("busy[1] = %f, want ≥ 3.0", busy[1])
	}
	busy[0] = 99 // must be a copy
	if c.WorkerBusy()[0] == 99 {
		t.Fatal("WorkerBusy returned internal slice")
	}
}
