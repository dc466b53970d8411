// Package match implements subgraph enumeration/matching with the
// compilation-based optimisations of AutoMine, GraphPi and GraphZero: a query
// pattern is compiled into a matching plan — a vertex matching order chosen
// by a cost heuristic plus symmetry-breaking restrictions derived from the
// pattern's automorphism group — and the plan is executed by backtracking
// over the data graph with candidate filtering. Matching is non-induced
// subgraph isomorphism (pattern edges must exist; extra data edges are
// allowed), the semantics those systems use.
package match

import (
	"fmt"

	"graphsys/internal/graph"
)

// Plan is a compiled matching plan for a pattern.
type Plan struct {
	Pattern *graph.Graph
	// Order is the sequence in which pattern vertices are matched.
	Order []graph.V
	// Restrict[j] lists earlier positions i whose mapped data vertex must be
	// LESS than position j's mapped data vertex (Grochow–Kellis
	// symmetry-breaking conditions, so each instance is found exactly once).
	Restrict [][]int
	// NumAut is the size of the pattern's automorphism group; counting with
	// restrictions and multiplying by NumAut recovers the embedding count.
	NumAut int
	// Induced switches to induced subgraph isomorphism: pattern NON-edges
	// must also be absent between the mapped data vertices.
	Induced bool
}

// Automorphisms returns all label- and adjacency-preserving permutations of
// p's vertices (p must have ≤ 10 vertices).
func Automorphisms(p *graph.Graph) [][]graph.V {
	k := p.NumVertices()
	if k > 10 {
		//lint:allow panicpolicy documented size precondition; pattern sizes are fixed small constants at every call site
		panic("match: automorphism search limited to 10 pattern vertices")
	}
	perm := make([]graph.V, k)
	used := make([]bool, k)
	var out [][]graph.V
	var rec func(i int)
	ok := func(i int) bool {
		// perm[i] just assigned: check label and edges to previous
		if p.Label(graph.V(i)) != p.Label(perm[i]) {
			return false
		}
		if p.Degree(graph.V(i)) != p.Degree(perm[i]) {
			return false
		}
		for j := 0; j < i; j++ {
			if p.HasEdge(graph.V(i), graph.V(j)) != p.HasEdge(perm[i], perm[j]) {
				return false
			}
		}
		return true
	}
	rec = func(i int) {
		if i == k {
			out = append(out, append([]graph.V(nil), perm...))
			return
		}
		for v := 0; v < k; v++ {
			if used[v] {
				continue
			}
			perm[i] = graph.V(v)
			if ok(i) {
				used[v] = true
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return out
}

// NaivePlan matches vertices in id order with no symmetry breaking — the
// uncompiled baseline whose cost the tab1-order experiment compares
// against.
func NaivePlan(p *graph.Graph) *Plan {
	order := make([]graph.V, p.NumVertices())
	for i := range order {
		order[i] = graph.V(i)
	}
	return &Plan{Pattern: p, Order: order, Restrict: make([][]int, len(order)), NumAut: 1}
}

// GreedyPlan chooses a connectivity-first, degree-weighted matching order
// (the core of GraphPi/AutoMine's cost-based ordering): start from the
// highest-degree pattern vertex, then repeatedly pick the unmatched vertex
// with the most edges into the prefix (maximising early pruning), breaking
// ties by pattern degree. No symmetry breaking.
func GreedyPlan(p *graph.Graph) *Plan {
	k := p.NumVertices()
	if k == 0 {
		return &Plan{Pattern: p, Restrict: [][]int{}, NumAut: 1}
	}
	order := make([]graph.V, 0, k)
	inOrder := make([]bool, k)
	// seed: max degree
	seed := graph.V(0)
	for v := 1; v < k; v++ {
		if p.Degree(graph.V(v)) > p.Degree(seed) {
			seed = graph.V(v)
		}
	}
	order = append(order, seed)
	inOrder[seed] = true
	for len(order) < k {
		best, bestConn, bestDeg := graph.V(-1), -1, -1
		for v := 0; v < k; v++ {
			if inOrder[v] {
				continue
			}
			conn := 0
			for _, w := range p.Neighbors(graph.V(v)) {
				if inOrder[w] {
					conn++
				}
			}
			deg := p.Degree(graph.V(v))
			if conn > bestConn || (conn == bestConn && deg > bestDeg) {
				best, bestConn, bestDeg = graph.V(v), conn, deg
			}
		}
		order = append(order, best)
		inOrder[best] = true
	}
	return &Plan{Pattern: p, Order: order, Restrict: make([][]int, k), NumAut: 1}
}

// OptimizedPlan is GreedyPlan plus Grochow–Kellis symmetry-breaking
// restrictions computed from the automorphism group, so each subgraph
// instance is enumerated exactly once instead of NumAut times.
func OptimizedPlan(p *graph.Graph) *Plan {
	plan := GreedyPlan(p)
	addSymmetryBreaking(plan)
	return plan
}

// addSymmetryBreaking computes restrictions by the stabilizer-chain scheme:
// walk the matching order; at each vertex v, for every u ≠ v in v's orbit
// under the automorphisms fixing all previously processed vertices, require
// map[v] < map[u]; then shrink the group to the stabilizer of v.
func addSymmetryBreaking(plan *Plan) {
	auts := Automorphisms(plan.Pattern)
	plan.NumAut = len(auts)
	pos := make([]int, plan.Pattern.NumVertices())
	for i, v := range plan.Order {
		pos[v] = i
	}
	plan.Restrict = make([][]int, len(plan.Order))
	for _, v := range plan.Order {
		// orbit of v under the current group
		orbit := map[graph.V]bool{}
		for _, a := range auts {
			orbit[a[v]] = true
		}
		for u := range orbit {
			if u == v {
				continue
			}
			// require map[v] < map[u]; checked when the later position binds
			if pos[v] < pos[u] {
				plan.Restrict[pos[u]] = append(plan.Restrict[pos[u]], pos[v])
			} else {
				// cannot express "earlier must be greater" as a lower bound;
				// flip: map[u] > map[v] with u earlier means at pos[v] we
				// need map[v] < map[u] — an upper bound. The stabilizer-chain
				// scheme walks vertices in matching order, so orbit members
				// are always unprocessed and later; this branch is
				// unreachable but kept as a guard.
				panic(fmt.Sprintf("match: orbit member %d precedes %d in order", u, v))
			}
		}
		// stabilize v
		var keep [][]graph.V
		for _, a := range auts {
			if a[v] == v {
				keep = append(keep, a)
			}
		}
		auts = keep
	}
}
