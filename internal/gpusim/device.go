// Package gpusim models the GPU execution environment the paper's Section 2
// GPU systems target, at the granularity their design arguments are made:
// warps of lanes executing in lock-step (divergence wastes lane-cycles), a
// bounded device memory (the reason BFS expansion explodes and systems like
// PBE/VSGM/SGSI partition the graph and G²-AIMD spills to host memory), and a
// coalesced-vs-random memory cost model (the reason early systems preferred
// BFS expansion over backtracking, per Jenkins et al.'s "lessons learned").
//
// On top of the device model the package implements the five GPU subgraph
// matching strategies the paper contrasts: BFS expansion (GSI, cuTS),
// partitioned BFS with host transfers at the partition boundary (PBE, VSGM,
// SGSI), AIMD-chunked BFS with host-memory buffering (G²-AIMD),
// warp-per-subtree DFS with work stealing (STMatch, T-DFS), and the BFS→DFS
// hybrid (EGSM). All five are drivers over two kernels, expand (one BFS level,
// warp by warp) and dfs (the warp-DFS over a list of seed prefixes), and
// differ only in how they spend device memory between levels. The simulator
// runs on the calling goroutine, so every counter is deterministic.
package gpusim

// Device describes a simulated GPU.
type Device struct {
	NumSMs      int   // concurrently executing warps
	WarpSize    int   // lanes per warp
	MemorySlots int64 // device memory capacity, in partial-match vertex slots
}

// Metrics accumulates simulated execution counters.
type Metrics struct {
	WarpCycles      int64 // total warp-steps executed (cost ∝ wall time)
	DivergenceLoss  int64 // lane-cycles idle due to intra-warp divergence
	MemTransactions int64 // memory transactions (coalesced accesses batched)
	RandomAccesses  int64 // uncoalesced accesses (1 transaction each)
	PeakMemory      int64 // peak device-memory slots in use
	HostSpillSlots  int64 // slots spilled to host memory (G²-AIMD buffering)
	OOM             bool  // a pure-BFS run exceeded device memory
	Steals          int64 // warp-DFS takes after each warp's first (DFS engines)
	ChunkAdjust     int64 // AIMD chunk-size adjustments
}

// memTracker tracks device-memory usage against the capacity.
type memTracker struct {
	used int64
	peak int64
	cap  int64
}

func (t *memTracker) alloc(n int64) bool {
	if t.used+n > t.cap {
		return false
	}
	t.used += n
	if t.used > t.peak {
		t.peak = t.used
	}
	return true
}

func (t *memTracker) free(n int64) {
	t.used -= n
}

// warpCost simulates one warp instruction over laneWork: the warp runs for
// max(laneWork) cycles; lanes with less work idle (divergence). Returns
// (cycles, divergenceLoss).
func warpCost(laneWork []int64) (int64, int64) {
	var max int64
	for _, w := range laneWork {
		if w > max {
			max = w
		}
	}
	var loss int64
	for _, w := range laneWork {
		loss += max - w
	}
	return max, loss
}

// coalescedTransactions returns the number of memory transactions needed to
// read n consecutive items with warpSize-wide coalescing.
func coalescedTransactions(n int64, warpSize int) int64 {
	if n <= 0 {
		return 0
	}
	return (n + int64(warpSize) - 1) / int64(warpSize)
}
