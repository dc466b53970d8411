package cluster

import (
	"sync/atomic"
	"testing"
)

func TestNetworkAccounting(t *testing.T) {
	net := NewNetwork(3)
	net.Account(0, 1, 100)
	net.Account(1, 2, 50)
	net.Account(2, 2, 999) // local, free
	s := net.Stats()
	if s.Messages != 2 || s.Bytes != 150 || s.LocalMessages != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.WeightedCost != 150 {
		t.Fatalf("cost = %f", s.WeightedCost)
	}
	net.SetLinkCost(0, 1, 0.1)
	net.Account(0, 1, 100)
	if got := net.Stats().WeightedCost; got != 160 {
		t.Fatalf("weighted cost = %f want 160", got)
	}
	net.Reset()
	if s := net.Stats(); s.Bytes != 0 || s.Messages != 0 || s.WeightedCost != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestMailboxesBSPSemantics(t *testing.T) {
	net := NewNetwork(2)
	mb := NewMailboxes[int](net, nil)
	mb.Send(0, 1, 42)
	if got := mb.Receive(1); len(got) != 0 {
		t.Fatal("message visible before Exchange")
	}
	if d := mb.Exchange(); d != 1 {
		t.Fatalf("delivered %d", d)
	}
	got := mb.Receive(1)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
	// next exchange clears
	mb.Exchange()
	if len(mb.Receive(1)) != 0 {
		t.Fatal("old messages not cleared")
	}
	if net.Stats().Rounds != 2 {
		t.Fatalf("rounds = %d", net.Stats().Rounds)
	}
}

func TestMailboxesConcurrentSenders(t *testing.T) {
	net := NewNetwork(4)
	mb := NewMailboxes[int](net, func(int) int64 { return 4 })
	g := New(4).NewGang()
	defer g.Close()
	g.Run(func(w int) {
		for i := 0; i < 100; i++ {
			mb.Send(w, (w+1)%4, i)
		}
	})
	mb.Exchange()
	total := 0
	for w := 0; w < 4; w++ {
		total += len(mb.Receive(w))
	}
	if total != 400 {
		t.Fatalf("delivered %d, want 400", total)
	}
	if net.Stats().Bytes != 1600 {
		t.Fatalf("bytes = %d", net.Stats().Bytes)
	}
}

func TestLambdaPool(t *testing.T) {
	p := NewLambdaPool(4)
	var sum atomic.Int64
	p.Map(50, func(i int) int64 { return int64(i) }, func(i int) {
		sum.Add(int64(i))
	})
	if sum.Load() != 49*50/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if p.Invocations() != 50 {
		t.Fatalf("invocations = %d", p.Invocations())
	}
	if p.UnitsBilled() != 49*50/2 {
		t.Fatalf("billed = %d", p.UnitsBilled())
	}
}

func TestCostModelShape(t *testing.T) {
	m := DefaultCostModel()
	// Dorylus claim: for equal work, lambda + CPU servers is cheaper than GPUs.
	gpu := m.GPUCost(4, 600)
	lam := m.LambdaCost(1000, 600, 4, 600)
	if lam >= gpu {
		t.Fatalf("serverless (%f) should undercut GPU (%f) in the default model", lam, gpu)
	}
}

func TestCommPlanRelay(t *testing.T) {
	net := NewNetwork(4)
	RingTopology(net, 2, 0.05) // hosts {0,1} and {2,3}
	// direct 0→3 is cross-host cost 1; any relay is ≥1, so direct stays
	ts := []Transfer{{From: 0, To: 3, Size: 1000}}
	plan := PlanRelay(net, ts)
	if len(plan.hops[0]) != 2 {
		t.Fatalf("expected direct route, got %v", plan.hops[0])
	}
	// make the direct link pathologically slow: relay should kick in
	net.SetLinkCost(0, 3, 5)
	plan = PlanRelay(net, ts)
	if len(plan.hops[0]) != 3 {
		t.Fatalf("expected relay route, got %v", plan.hops[0])
	}
	direct := DirectPlan(ts).Execute(net, ts)
	net.Reset()
	relay := plan.Execute(net, ts)
	if relay >= direct {
		t.Fatalf("relay cost %f >= direct %f", relay, direct)
	}
}
