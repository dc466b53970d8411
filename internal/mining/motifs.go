package mining

import (
	"fmt"
	"sort"
	"sync"

	"graphsys/internal/graph"
)

// CanonicalCode returns a canonical string key of the subgraph of g induced
// by vs (|vs| ≤ 8), such that two induced subgraphs get the same key iff they
// are isomorphic (respecting vertex labels when present). It brute-forces all
// |vs|! vertex permutations and keeps the lexicographically smallest
// (labels, adjacency-bits) encoding — exact and fast for the pattern sizes
// mining systems aggregate (k ≤ 6 in Arabesque/Pangolin evaluations).
func CanonicalCode(g *graph.Graph, vs []graph.V) string {
	k := len(vs)
	if k > 8 {
		//lint:allow panicpolicy documented size precondition (k ≤ 8, the Arabesque/Pangolin evaluation range); callers pick k statically
		panic("mining: CanonicalCode supports at most 8 vertices")
	}
	// local adjacency matrix + labels
	var adj [8][8]bool
	var labels [8]int32
	for i := 0; i < k; i++ {
		labels[i] = g.Label(vs[i])
		for j := i + 1; j < k; j++ {
			e := g.HasEdge(vs[i], vs[j])
			adj[i][j], adj[j][i] = e, e
		}
	}
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	best := ""
	var rec func(i int)
	encode := func() string {
		buf := make([]byte, 0, k*4+k*k)
		for _, p := range perm {
			buf = append(buf, byte(labels[p]), byte(labels[p]>>8), byte(labels[p]>>16), byte(labels[p]>>24))
		}
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if adj[perm[a]][perm[b]] {
					buf = append(buf, '1')
				} else {
					buf = append(buf, '0')
				}
			}
		}
		return string(buf)
	}
	rec = func(i int) {
		if i == k {
			if code := encode(); best == "" || code < best {
				best = code
			}
			return
		}
		for j := i; j < k; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

// PatternName renders a human-readable name for common unlabeled size-3/4
// motif codes; unknown codes are returned as-is.
func PatternName(code string) string {
	names := map[string]string{}
	reg := func(n int, edges [][2]graph.V, name string) {
		b := graph.NewBuilder(n, false)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g := b.Build()
		vs := make([]graph.V, n)
		for i := range vs {
			vs[i] = graph.V(i)
		}
		names[CanonicalCode(g, vs)] = name
	}
	reg(3, [][2]graph.V{{0, 1}, {1, 2}}, "wedge")
	reg(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}}, "triangle")
	reg(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}}, "path4")
	reg(4, [][2]graph.V{{0, 1}, {0, 2}, {0, 3}}, "star4")
	reg(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, "cycle4")
	reg(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, "diamond")
	reg(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 0}, {2, 3}}, "tailed-triangle")
	reg(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}}, "K4")
	if n, ok := names[code]; ok {
		return n
	}
	return fmt.Sprintf("pattern<%x>", code)
}

// MotifCounts counts connected induced subgraphs of size k by isomorphism
// class (graphlet/motif counting — the Arabesque "motifs" application).
func MotifCounts(g *graph.Graph, k int, cfg Config) (map[string]int64, Stats) {
	var mu sync.Mutex
	counts := map[string]int64{}
	stats := Explore(g, k, nil, func(sub []graph.V) {
		code := CanonicalCode(g, sub)
		mu.Lock()
		counts[code]++
		mu.Unlock()
	}, cfg)
	return counts, stats
}

// CountCliquesBFS counts k-cliques with the BFS-extension engine, pruning
// embeddings that are not cliques at every level (clique-ness is hereditary,
// so the filter is exact). Its Stats expose the materialisation cost to
// compare against DFS clique search (the tab1-model experiment).
func CountCliquesBFS(g *graph.Graph, k int, cfg Config) (int64, Stats) {
	var mu sync.Mutex
	var count int64
	isClique := func(sub []graph.V) bool {
		last := sub[len(sub)-1]
		for _, v := range sub[:len(sub)-1] {
			if !g.HasEdge(v, last) {
				return false
			}
		}
		return true
	}
	stats := Explore(g, k, isClique, func(sub []graph.V) {
		mu.Lock()
		count++
		mu.Unlock()
	}, cfg)
	return count, stats
}

// CountCliquesDFS counts k-cliques by depth-first backtracking without
// materialising embeddings (the G-thinker-style counterpart; its memory use
// is O(k·Δ) instead of O(#embeddings)).
func CountCliquesDFS(g *graph.Graph, k int) int64 {
	order, _ := graph.DegeneracyOrder(g)
	pos := make([]int, g.NumVertices())
	for i, v := range order {
		pos[v] = i
	}
	var count int64
	var extend func(cands []graph.V, size int)
	extend = func(cands []graph.V, size int) {
		if size == k {
			count++
			return
		}
		for i, v := range cands {
			if size+len(cands)-i < k {
				return // not enough candidates left
			}
			var next []graph.V
			for _, w := range cands[i+1:] {
				if g.HasEdge(v, w) {
					next = append(next, w)
				}
			}
			extend(next, size+1)
		}
	}
	for _, v := range order {
		var cands []graph.V
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				cands = append(cands, w)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return pos[cands[i]] < pos[cands[j]] })
		extend(cands, 1)
	}
	return count
}

// FrequentPatterns aggregates size-k connected induced subgraphs by canonical
// pattern and returns the patterns whose instance count is ≥ minSupport
// (instance-count support, the aggregation Arabesque exposes; see
// internal/fsm for MNI-based single-graph FSM).
func FrequentPatterns(g *graph.Graph, k int, minSupport int64, cfg Config) (map[string]int64, Stats) {
	counts, stats := MotifCounts(g, k, cfg)
	for code, c := range counts {
		if c < minSupport {
			delete(counts, code)
		}
	}
	return counts, stats
}
