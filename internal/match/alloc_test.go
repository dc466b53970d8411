package match_test

import (
	"testing"

	"graphsys/internal/gpusim"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/match"
)

// allocsPerWorker bounds the allocations of one matcher call per worker. The
// extender's only allocations are the root list and per-depth buffer growth,
// so the bound does not depend on the search-tree size (tens of thousands of
// nodes below).
const allocsPerWorker = 64

// TestExtenderAllocationsDoNotScaleWithTree runs match.Count under every
// plan on tab1-order's 4-chord input, and the warp-DFS matcher on tab1-gpu's
// input, and requires each to stay under a per-worker allocation bound.
func TestExtenderAllocationsDoNotScaleWithTree(t *testing.T) {
	g := gen.BarabasiAlbert(600, 6, 3)
	chord := graph.FromEdges(4, [][2]graph.V{{0, 2}, {1, 2}, {2, 3}, {0, 3}, {1, 3}})
	for _, plan := range []struct {
		name string
		p    *match.Plan
	}{
		{"naive", match.NaivePlan(chord)},
		{"greedy", match.GreedyPlan(chord)},
		{"optimised", match.OptimizedPlan(chord)},
	} {
		for _, workers := range []int{1, 4} {
			var stats match.Stats
			allocs := testing.AllocsPerRun(2, func() { _, stats = match.Count(g, plan.p, workers) })
			if allocs > float64(allocsPerWorker*workers) {
				t.Errorf("%s, %d workers: %.0f allocations per call over %d tree nodes, want ≤ %d",
					plan.name, workers, allocs, stats.TreeNodes, allocsPerWorker*workers)
			}
		}
	}

	gg := gen.BarabasiAlbert(400, 8, 6)
	cycle := match.OptimizedPlan(graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
	dev := &gpusim.Device{NumSMs: 8, WarpSize: 32, MemorySlots: 1 << 30}
	if allocs := testing.AllocsPerRun(2, func() { gpusim.DFSWarpMatch(gg, cycle, dev) }); allocs > allocsPerWorker {
		t.Errorf("DFSWarpMatch: %.0f allocations per call, want ≤ %d", allocs, allocsPerWorker)
	}
}
