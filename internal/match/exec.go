package match

import (
	"sync"

	"graphsys/internal/graph"
	"graphsys/internal/tensor"
)

// Stats meters the work a plan execution performs; TreeNodes is the
// search-tree size that matching-order optimisation (GraphPi/AutoMine)
// minimises.
type Stats struct {
	TreeNodes  int64 // backtracking nodes expanded
	Candidates int64 // candidate vertices scanned
	Matches    int64 // complete matches found
}

// Count returns the number of matches of plan's pattern in g. With an
// OptimizedPlan each subgraph instance is counted once; with Naive/Greedy
// plans each instance is counted once per automorphism.
func Count(g *graph.Graph, plan *Plan, workers int) (int64, Stats) {
	var stats Stats
	Enumerate(g, plan, workers, func(m []graph.V) bool { return true }, &stats)
	return stats.Matches, stats
}

// Enumerate finds all matches of plan's pattern in g, invoking fn with the
// mapping (indexed by pattern vertex id, not order position). fn must not
// retain the slice; return false to stop early (best-effort across workers).
// Root candidates are split across workers.
func Enumerate(g *graph.Graph, plan *Plan, workers int, fn func(mapping []graph.V) bool, stats *Stats) {
	if workers <= 0 {
		workers = 4
	}
	k := len(plan.Order)
	if k == 0 {
		return
	}
	if stats == nil {
		stats = &Stats{}
	}
	roots, scanned := plan.CandidatesForPrefix(g, nil, nil)
	stats.Candidates += int64(scanned)
	var mu sync.Mutex // serialises fn and stats merging
	stop := false
	emit := func(m []graph.V) bool {
		mu.Lock()
		defer mu.Unlock()
		if stop {
			return false
		}
		if !fn(m) {
			stop = true
			return false
		}
		return true
	}
	tensor.ParallelChunks(len(roots), workers, func(_, lo, hi int) {
		e := &executor{g: g, plan: plan, cands: make([][]graph.V, k), mapping: make([]graph.V, k)}
		prefix := make([]graph.V, 1, k)
		for _, r := range roots[lo:hi] {
			mu.Lock()
			st := stop
			mu.Unlock()
			if st {
				break
			}
			prefix[0] = r
			e.extend(prefix, emit)
		}
		mu.Lock()
		stats.TreeNodes += e.stats.TreeNodes
		stats.Candidates += e.stats.Candidates
		stats.Matches += e.stats.Matches
		mu.Unlock()
	})
}

// executor backtracks below one worker's roots over a single prefix buffer
// (data vertex per order position) and one candidate buffer per depth.
type executor struct {
	g       *graph.Graph
	plan    *Plan
	cands   [][]graph.V // candidate buffer per order position
	mapping []graph.V   // pattern vertex -> data vertex, filled per match
	stats   Stats
}

// extend counts the search-tree node prefix and recurses below it. emit
// returns false to stop.
func (e *executor) extend(prefix []graph.V, emit func([]graph.V) bool) bool {
	e.stats.TreeNodes++
	i := len(prefix)
	if i == len(e.plan.Order) {
		e.stats.Matches++
		for j, pv := range e.plan.Order {
			e.mapping[pv] = prefix[j]
		}
		return emit(e.mapping)
	}
	cands, scanned := e.plan.CandidatesForPrefix(e.g, prefix, e.cands[i][:0])
	e.cands[i] = cands
	e.stats.Candidates += int64(scanned)
	for _, dv := range cands {
		if !e.extend(append(prefix, dv), emit) {
			return false
		}
	}
	return true
}
