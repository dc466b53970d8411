package gpusim

import (
	"graphsys/internal/graph"
	"graphsys/internal/match"
)

// rootLevel returns the length-1 prefixes, one per candidate for the first
// order position, and charges m the coalesced vertex scan that finds them.
// An empty pattern has no roots and charges nothing.
func rootLevel(g *graph.Graph, plan *match.Plan, dev *Device, m *Metrics) [][]graph.V {
	if len(plan.Order) == 0 {
		return nil
	}
	m.MemTransactions += coalescedTransactions(int64(g.NumVertices()), dev.WarpSize)
	roots, _ := plan.CandidatesForPrefix(g, nil, nil)
	level := make([][]graph.V, len(roots))
	for i := range roots {
		level[i] = roots[i : i+1 : i+1]
	}
	return level
}

// expand runs one BFS level warp by warp and returns the next level. A warp
// takes WarpSize prefixes; its lanes scan their candidates in lock-step, so
// the warp runs as long as its busiest lane while the others idle
// (divergence), and the children are written out coalesced.
func expand(g *graph.Graph, plan *match.Plan, dev *Device, level [][]graph.V, m *Metrics) [][]graph.V {
	var next [][]graph.V
	var cands []graph.V
	lane := make([]int64, 0, dev.WarpSize)
	for lo := 0; lo < len(level); lo += dev.WarpSize {
		lane = lane[:0]
		written := len(next)
		for _, prefix := range level[lo:min(lo+dev.WarpSize, len(level))] {
			cands, _ = plan.CandidatesForPrefix(g, prefix, cands[:0])
			lane = append(lane, int64(len(cands)))
			for _, c := range cands {
				next = append(next, append(append(make([]graph.V, 0, len(prefix)+1), prefix...), c))
			}
		}
		cyc, div := warpCost(lane)
		m.WarpCycles += cyc
		m.DivergenceLoss += div
		m.MemTransactions += coalescedTransactions(int64(len(next)-written), dev.WarpSize)
	}
	return next
}

// bfs materialises level in device memory and expands it level by level
// while each new level fits. It returns the deepest level that fit and
// whether that level is complete (one prefix per match). The expansion of a
// level that did not fit stays charged to m, and m.PeakMemory becomes the
// larger of itself and this run's peak. onLevel, when not nil, sees each new
// level before it is allocated.
func bfs(g *graph.Graph, plan *match.Plan, dev *Device, level [][]graph.V, m *Metrics, onLevel func([][]graph.V)) ([][]graph.V, bool) {
	mem := memTracker{cap: dev.MemorySlots}
	defer func() { m.PeakMemory = max(m.PeakMemory, mem.peak) }()
	if !mem.alloc(int64(len(level))) {
		return level, false
	}
	for depth := 1; depth < len(plan.Order); depth++ {
		next := expand(g, plan, dev, level, m)
		if onLevel != nil {
			onLevel(next)
		}
		if !mem.alloc(int64(len(next)) * int64(depth+1)) {
			return level, false
		}
		mem.free(int64(len(level)) * int64(depth))
		level = next
	}
	return level, true
}

// dfs runs the warp-DFS engine over seeds and returns the number of matches
// below them. Each of the NumSMs warps takes a seed and backtracks below it
// on its own stack, its lanes scanning candidates WarpSize at a time (a
// partial last group idles lanes) with uncoalesced adjacency probes; a warp
// that finishes takes a seed left over, and every take after a warp's first
// is a steal. Every other counter is a sum over seeds, so running the seeds
// one after another gives what any interleaving of the warps gives.
func dfs(g *graph.Graph, plan *match.Plan, dev *Device, seeds [][]graph.V, m *Metrics) int64 {
	k := len(plan.Order)
	m.Steals += int64(max(len(seeds)-dev.NumSMs, 0))
	stack := make([]graph.V, 0, k) // the one prefix buffer, backtracked in place
	cands := make([][]graph.V, k)  // one candidate buffer per depth
	var count int64
	var walk func(prefix []graph.V)
	walk = func(prefix []graph.V) {
		d := len(prefix)
		if d == k {
			count++
			return
		}
		cands[d], _ = plan.CandidatesForPrefix(g, prefix, cands[d][:0])
		groups := coalescedTransactions(int64(len(cands[d])), dev.WarpSize)
		m.WarpCycles += groups
		m.DivergenceLoss += groups*int64(dev.WarpSize) - int64(len(cands[d]))
		m.RandomAccesses += int64(len(cands[d]))
		for _, c := range cands[d] {
			walk(append(prefix, c))
		}
	}
	for _, seed := range seeds {
		walk(append(stack[:0], seed...))
	}
	return count
}

// BFSMatch counts pattern matches with pure level-synchronous BFS expansion
// in device memory — the GSI/cuTS strategy. All partial matches of length i
// are materialised before length i+1; accesses are coalesced, divergence is
// low, but memory grows with the intermediate-result explosion. If a level
// does not fit in device memory the run aborts with Metrics.OOM set (the
// failure mode that motivated PBE/VSGM/SGSI partitioning and G²-AIMD).
func BFSMatch(g *graph.Graph, plan *match.Plan, dev *Device) (int64, Metrics) {
	var m Metrics
	level, complete := bfs(g, plan, dev, rootLevel(g, plan, dev, &m), &m, nil)
	if !complete {
		m.OOM = true
		return 0, m
	}
	return int64(len(level)), m
}

// PartitionedBFSMatch is the PBE/VSGM/SGSI strategy for graphs (or
// intermediate results) larger than device memory: the vertex set is split
// into numParts partitions, one partition's root candidates are processed at
// a time with BFS expansion, and any adjacency access that leaves the loaded
// partition is charged as a host transfer (Metrics.HostSpillSlots). Device
// memory is recycled between partitions, so the peak is roughly 1/numParts
// of monolithic BFS. A level that does not fit aborts the run with
// Metrics.OOM set, as in BFSMatch.
func PartitionedBFSMatch(g *graph.Graph, plan *match.Plan, dev *Device, assign []int, numParts int) (int64, Metrics) {
	var m Metrics
	roots := rootLevel(g, plan, dev, &m)
	var total int64
	for p := 0; p < numParts; p++ {
		var level [][]graph.V
		for _, r := range roots {
			if assign[r[0]] == p {
				level = append(level, r)
			}
		}
		level, complete := bfs(g, plan, dev, level, &m, func(next [][]graph.V) {
			for _, child := range next {
				if assign[child[len(child)-1]] != p {
					m.HostSpillSlots++ // boundary fetch from host
				}
			}
		})
		if !complete {
			m.OOM = true
			return 0, m
		}
		total += int64(len(level))
	}
	return total, m
}

// AIMDMatch is the G²-AIMD strategy: BFS-style extension executed chunk by
// chunk, with the chunk size adapted additively upward while memory is
// plentiful and multiplicatively downward when a chunk's output would
// overflow device memory; overflow is buffered in host memory instead of
// aborting. The result is BFS-like coalescing without the OOM failure mode.
func AIMDMatch(g *graph.Graph, plan *match.Plan, dev *Device) (int64, Metrics) {
	var m Metrics
	mem := memTracker{cap: dev.MemorySlots}
	k := len(plan.Order)
	chunk := dev.WarpSize // initial chunk size
	const additive = 32
	var count int64

	var process func(depth int, prefixes [][]graph.V)
	process = func(depth int, prefixes [][]graph.V) {
		if depth == k {
			count += int64(len(prefixes))
			return
		}
		for lo := 0; lo < len(prefixes); {
			hi := min(lo+chunk, len(prefixes))
			next := expand(g, plan, dev, prefixes[lo:hi], &m)
			lo = hi
			slots := int64(len(next)) * int64(depth+1)
			fits := mem.alloc(slots)
			if fits {
				// additive increase
				chunk += additive
				m.ChunkAdjust++
			} else {
				// multiplicative decrease + host buffering: the children are
				// staged through host memory and processed in smaller chunks
				m.HostSpillSlots += slots
				if chunk > dev.WarpSize {
					chunk /= 2
					m.ChunkAdjust++
				}
			}
			process(depth+1, next)
			if fits {
				mem.free(slots)
			}
		}
	}
	process(1, rootLevel(g, plan, dev, &m))
	m.PeakMemory = mem.peak
	return count, m
}

// DFSWarpMatch is the STMatch/T-DFS strategy: each warp performs depth-first
// matching over a chunk of independent search subtrees using its own stack
// (device memory O(warps·k), never OOM), with idle warps stealing root tasks
// from busy ones. Accesses are uncoalesced (backtracking jumps around the
// graph), the trade-off Jenkins et al. identified. The warps find their roots
// without the coalesced vertex scan the BFS engines are charged.
func DFSWarpMatch(g *graph.Graph, plan *match.Plan, dev *Device) (int64, Metrics) {
	var scan, m Metrics
	count := dfs(g, plan, dev, rootLevel(g, plan, dev, &scan), &m)
	m.PeakMemory = int64(dev.NumSMs * len(plan.Order)) // per-warp stacks only
	return count, m
}

// HybridMatch is the EGSM strategy: run the efficient BFS expansion while
// device memory permits; when a level would overflow, fall back to DFS for
// the remaining query vertices, seeding the per-warp stacks with the deepest
// level that fit (the roots themselves when even they do not fit).
func HybridMatch(g *graph.Graph, plan *match.Plan, dev *Device) (int64, Metrics) {
	var m Metrics
	level, complete := bfs(g, plan, dev, rootLevel(g, plan, dev, &m), &m, nil)
	if complete {
		return int64(len(level)), m
	}
	return dfs(g, plan, dev, level, &m), m
}
