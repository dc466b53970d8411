package gpusim

import (
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/match"
)

var (
	triangle = graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})
	cycle4   = graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
)

func bigDevice() *Device {
	return &Device{NumSMs: 4, WarpSize: 32, MemorySlots: 1 << 30}
}

func tinyDevice() *Device {
	return &Device{NumSMs: 4, WarpSize: 32, MemorySlots: 2000}
}

func TestAllEnginesAgreeWithCPU(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		g := gen.ErdosRenyi(80, 600, seed)
		for _, p := range []*graph.Graph{triangle, cycle4} {
			plan := match.OptimizedPlan(p)
			want, _ := match.Count(g, plan, 4)
			dev := bigDevice()
			if got, m := BFSMatch(g, plan, dev); got != want || m.OOM {
				t.Fatalf("BFS: got %d want %d (oom=%v)", got, want, m.OOM)
			}
			if got, _ := AIMDMatch(g, plan, dev); got != want {
				t.Fatalf("AIMD: got %d want %d", got, want)
			}
			if got, _ := DFSWarpMatch(g, plan, dev); got != want {
				t.Fatalf("DFSWarp: got %d want %d", got, want)
			}
			if got, _ := HybridMatch(g, plan, dev); got != want {
				t.Fatalf("Hybrid: got %d want %d", got, want)
			}
			assign := make([]int, g.NumVertices())
			for v := range assign {
				assign[v] = v % 4
			}
			if got, m := PartitionedBFSMatch(g, plan, dev, assign, 4); got != want || m.OOM {
				t.Fatalf("Partitioned: got %d want %d", got, want)
			}
		}
	}
}

func TestBFSOOMsWhereOthersSurvive(t *testing.T) {
	g := gen.BarabasiAlbert(300, 8, 1)
	plan := match.OptimizedPlan(cycle4)
	dev := tinyDevice()
	wantCount, _ := match.Count(g, plan, 4)

	_, mBFS := BFSMatch(g, plan, dev)
	if !mBFS.OOM {
		t.Fatalf("expected BFS OOM at %d slots (peak would be large)", dev.MemorySlots)
	}
	gotA, mA := AIMDMatch(g, plan, dev)
	if gotA != wantCount {
		t.Fatalf("AIMD under memory pressure: got %d want %d", gotA, wantCount)
	}
	if mA.HostSpillSlots == 0 {
		t.Fatal("AIMD should have spilled to host under pressure")
	}
	gotD, mD := DFSWarpMatch(g, plan, dev)
	if gotD != wantCount {
		t.Fatalf("DFS under memory pressure: got %d want %d", gotD, wantCount)
	}
	if mD.PeakMemory > 64*4 {
		t.Fatalf("DFS peak memory %d should be tiny", mD.PeakMemory)
	}
	gotH, _ := HybridMatch(g, plan, dev)
	if gotH != wantCount {
		t.Fatalf("Hybrid under memory pressure: got %d want %d", gotH, wantCount)
	}
}

func TestHybridAvoidsDFSWhenMemoryAmple(t *testing.T) {
	g := gen.ErdosRenyi(60, 400, 2)
	plan := match.OptimizedPlan(triangle)
	_, m := HybridMatch(g, plan, bigDevice())
	if m.RandomAccesses != 0 {
		t.Fatalf("ample memory should keep hybrid in BFS mode, random=%d", m.RandomAccesses)
	}
	_, m2 := HybridMatch(g, plan, &Device{NumSMs: 2, WarpSize: 32, MemorySlots: 300})
	if m2.RandomAccesses == 0 {
		t.Fatal("tiny memory should force hybrid into DFS phase")
	}
}

func TestDFSHasRandomAccessesBFSCoalesced(t *testing.T) {
	g := gen.ErdosRenyi(60, 400, 3)
	plan := match.OptimizedPlan(triangle)
	dev := bigDevice()
	_, mB := BFSMatch(g, plan, dev)
	_, mD := DFSWarpMatch(g, plan, dev)
	if mB.RandomAccesses != 0 {
		t.Fatal("BFS should be fully coalesced")
	}
	if mD.RandomAccesses == 0 {
		t.Fatal("DFS should have uncoalesced accesses")
	}
	if mB.PeakMemory <= mD.PeakMemory {
		t.Fatalf("BFS peak %d should exceed DFS peak %d", mB.PeakMemory, mD.PeakMemory)
	}
}

func TestAIMDChunkAdaptation(t *testing.T) {
	g := gen.BarabasiAlbert(200, 6, 4)
	plan := match.OptimizedPlan(triangle)
	_, m := AIMDMatch(g, plan, bigDevice())
	if m.ChunkAdjust == 0 {
		t.Fatal("AIMD should adjust chunk size")
	}
	if m.OOM {
		t.Fatal("AIMD must never OOM")
	}
}

func TestPartitionedPeakBelowMonolithic(t *testing.T) {
	g := gen.BarabasiAlbert(250, 6, 5)
	plan := match.OptimizedPlan(triangle)
	dev := bigDevice()
	_, mono := BFSMatch(g, plan, dev)
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % 8
	}
	cnt, part := PartitionedBFSMatch(g, plan, dev, assign, 8)
	wantCount, _ := match.Count(g, plan, 4)
	if cnt != wantCount {
		t.Fatalf("partitioned count %d want %d", cnt, wantCount)
	}
	if part.PeakMemory >= mono.PeakMemory {
		t.Fatalf("partitioned peak %d should be below monolithic %d", part.PeakMemory, mono.PeakMemory)
	}
	if part.HostSpillSlots == 0 {
		t.Fatal("cross-partition accesses expected")
	}
}

func TestWarpCost(t *testing.T) {
	cyc, div := warpCost([]int64{3, 1, 2})
	if cyc != 3 || div != 2+1 {
		t.Fatalf("warpCost = (%d,%d)", cyc, div)
	}
	cyc, div = warpCost(nil)
	if cyc != 0 || div != 0 {
		t.Fatal("empty warp")
	}
}

func TestCoalescedTransactions(t *testing.T) {
	if coalescedTransactions(0, 32) != 0 {
		t.Fatal("zero items")
	}
	if coalescedTransactions(32, 32) != 1 {
		t.Fatal("exact warp")
	}
	if coalescedTransactions(33, 32) != 2 {
		t.Fatal("one over")
	}
}

func TestMemTracker(t *testing.T) {
	mt := &memTracker{cap: 100}
	if !mt.alloc(60) || !mt.alloc(40) {
		t.Fatal("alloc within cap failed")
	}
	if mt.alloc(1) {
		t.Fatal("alloc over cap succeeded")
	}
	mt.free(50)
	if !mt.alloc(50) {
		t.Fatal("re-alloc after free failed")
	}
	if mt.peak != 100 {
		t.Fatalf("peak = %d", mt.peak)
	}
}

func TestEmptyPatternOnDevice(t *testing.T) {
	plan := match.NaivePlan(graph.NewBuilder(0, false).Build())
	g := gen.Clique(5)
	if c, _ := BFSMatch(g, plan, bigDevice()); c != 0 {
		t.Fatal("empty pattern matched")
	}
	if c, _ := DFSWarpMatch(g, plan, bigDevice()); c != 0 {
		t.Fatal("empty pattern matched (dfs)")
	}
}

// TestMetricsPinned pins every counter of the five strategies on tab1-gpu's
// input (the 4-cycle on BA(400,8), 8 SMs, warp 32, assign[v] = v % 8) at
// ample, scarce and root-starved memory: 300 and 40 slots hold fewer than
// the 400 root prefixes, and a root level that does not fit is treated like
// any other level that does not fit (OOM for the BFS engines, DFS from the
// roots for the hybrid). Steals is pinned separately: one per take after
// each warp's first, the same on every call.
func TestMetricsPinned(t *testing.T) {
	g := gen.BarabasiAlbert(400, 8, 6)
	plan := match.OptimizedPlan(cycle4)
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % 8
	}
	run := func(engine string, dev *Device) (int64, Metrics) {
		switch engine {
		case "bfs":
			return BFSMatch(g, plan, dev)
		case "partitioned":
			return PartitionedBFSMatch(g, plan, dev, assign, 8)
		case "aimd":
			return AIMDMatch(g, plan, dev)
		case "dfs":
			return DFSWarpMatch(g, plan, dev)
		}
		return HybridMatch(g, plan, dev)
	}
	for _, c := range []struct {
		slots  int64
		engine string
		count  int64
		want   Metrics // Steals left 0
	}{
		{1 << 30, "bfs", 51690, Metrics{WarpCycles: 9004, DivergenceLoss: 199631, MemTransactions: 3436, PeakMemory: 307617}},
		{1 << 30, "partitioned", 51690, Metrics{WarpCycles: 9316, DivergenceLoss: 208817, MemTransactions: 3426, PeakMemory: 64959, HostSpillSlots: 78103}},
		{1 << 30, "aimd", 51690, Metrics{WarpCycles: 9000, DivergenceLoss: 199232, MemTransactions: 3437, PeakMemory: 52001, ChunkAdjust: 52}},
		{1 << 30, "dfs", 51690, Metrics{WarpCycles: 20473, DivergenceLoss: 566663, RandomAccesses: 88473, PeakMemory: 32}},
		{1 << 30, "hybrid", 51690, Metrics{WarpCycles: 9004, DivergenceLoss: 199631, MemTransactions: 3436, PeakMemory: 307617}},
		{4096, "bfs", 0, Metrics{WarpCycles: 203, DivergenceLoss: 3316, MemTransactions: 119, PeakMemory: 400, OOM: true}},
		{4096, "partitioned", 0, Metrics{WarpCycles: 492, DivergenceLoss: 9579, MemTransactions: 210, PeakMemory: 930, HostSpillSlots: 5379, OOM: true}},
		{4096, "aimd", 51690, Metrics{WarpCycles: 9592, DivergenceLoss: 195910, MemTransactions: 3512, PeakMemory: 4094, HostSpillSlots: 202751, ChunkAdjust: 243}},
		{4096, "dfs", 51690, Metrics{WarpCycles: 20473, DivergenceLoss: 566663, RandomAccesses: 88473, PeakMemory: 32}},
		{4096, "hybrid", 51690, Metrics{WarpCycles: 20676, DivergenceLoss: 569979, MemTransactions: 119, RandomAccesses: 88473, PeakMemory: 400}},
		{300, "bfs", 0, Metrics{MemTransactions: 13, OOM: true}},
		{300, "partitioned", 0, Metrics{WarpCycles: 84, DivergenceLoss: 2220, MemTransactions: 28, PeakMemory: 50, HostSpillSlots: 388, OOM: true}},
		{300, "aimd", 51690, Metrics{WarpCycles: 9412, DivergenceLoss: 196531, MemTransactions: 3527, PeakMemory: 300, HostSpillSlots: 271604, ChunkAdjust: 401}},
		{300, "dfs", 51690, Metrics{WarpCycles: 20473, DivergenceLoss: 566663, RandomAccesses: 88473, PeakMemory: 32}},
		{300, "hybrid", 51690, Metrics{WarpCycles: 20473, DivergenceLoss: 566663, MemTransactions: 13, RandomAccesses: 88473}},
		{40, "bfs", 0, Metrics{MemTransactions: 13, OOM: true}},
		{40, "partitioned", 0, Metrics{MemTransactions: 13, OOM: true}},
		{40, "aimd", 51690, Metrics{WarpCycles: 9336, DivergenceLoss: 198502, MemTransactions: 3506, PeakMemory: 40, HostSpillSlots: 310121, ChunkAdjust: 302}},
		{40, "dfs", 51690, Metrics{WarpCycles: 20473, DivergenceLoss: 566663, RandomAccesses: 88473, PeakMemory: 32}},
		{40, "hybrid", 51690, Metrics{WarpCycles: 20473, DivergenceLoss: 566663, MemTransactions: 13, RandomAccesses: 88473}},
	} {
		count, m := run(c.engine, &Device{NumSMs: 8, WarpSize: 32, MemorySlots: c.slots})
		m.Steals = 0
		if count != c.count || m != c.want {
			t.Errorf("%s at %d slots: count %d %+v, want %d %+v", c.engine, c.slots, count, m, c.count, c.want)
		}
	}
	scarce := &Device{NumSMs: 8, WarpSize: 32, MemorySlots: 4096}
	for i := 0; i < 20; i++ {
		for _, engine := range []string{"dfs", "hybrid"} {
			if _, m := run(engine, scarce); m.Steals != 400-8 {
				t.Fatalf("%s call %d: steals %d, want 392", engine, i, m.Steals)
			}
		}
	}
}
