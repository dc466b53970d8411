package match

import "graphsys/internal/graph"

// CandidatesForPrefix appends to dst the feasible data-vertex candidates for
// order position len(prefix), where prefix[j] is the data vertex bound to
// plan position j, and returns dst with the number of vertices it scanned.
// It is the one plan-execution primitive: Enumerate, the online engine in
// internal/gthinkerq and the simulated-GPU matchers in internal/gpusim all
// extend prefixes through it.
//
// Candidates are the intersection of the bound anchors' adjacency lists,
// started from the smallest, or every vertex when no pattern neighbour of
// the position is bound yet (what makes a disconnected naive order slow).
// The intersection and the feasibility filter run in dst's tail, so the
// only allocation is dst's growth; no adjacency list is written.
func (plan *Plan) CandidatesForPrefix(g *graph.Graph, prefix, dst []graph.V) ([]graph.V, int) {
	i := len(prefix)
	pv := plan.Order[i]
	first := graph.V(-1)
	for _, w := range plan.Pattern.Neighbors(pv) {
		if j := plan.position(w, i); j >= 0 && (first < 0 || g.Degree(prefix[j]) < g.Degree(first)) {
			first = prefix[j]
		}
	}
	if first < 0 {
		n := g.NumVertices()
		for v := graph.V(0); int(v) < n; v++ {
			if plan.feasible(g, prefix, v) {
				dst = append(dst, v)
			}
		}
		return dst, n
	}
	base := len(dst)
	cands := g.Neighbors(first)
	for _, w := range plan.Pattern.Neighbors(pv) {
		if j := plan.position(w, i); j >= 0 && prefix[j] != first {
			// in place once cands is dst's tail: Intersect writes at or
			// before its read index in its first argument
			dst = graph.Intersect(cands, g.Neighbors(prefix[j]), dst[:base])
			cands = dst[base:]
		}
	}
	scanned := len(cands)
	dst = dst[:base]
	for _, dv := range cands {
		if plan.feasible(g, prefix, dv) {
			dst = append(dst, dv)
		}
	}
	return dst, scanned
}

// position returns the order position of pattern vertex w among the first
// i positions, or -1 when w is not bound yet.
func (plan *Plan) position(w graph.V, i int) int {
	for j, u := range plan.Order[:i] {
		if u == w {
			return j
		}
	}
	return -1
}

// feasible checks label, degree, distinctness, symmetry restrictions, edge
// labels into the prefix and (for induced plans) non-edges into the prefix
// for binding data vertex dv at order position len(prefix).
func (plan *Plan) feasible(g *graph.Graph, prefix []graph.V, dv graph.V) bool {
	i := len(prefix)
	p, pv := plan.Pattern, plan.Order[i]
	if p.HasLabels() && p.Label(pv) != g.Label(dv) {
		return false
	}
	if g.Degree(dv) < p.Degree(pv) {
		return false
	}
	for _, u := range prefix {
		if u == dv {
			return false
		}
	}
	for _, earlier := range plan.Restrict[i] {
		if prefix[earlier] >= dv {
			return false
		}
	}
	if p.HasEdgeLabels() {
		for _, w := range p.Neighbors(pv) {
			if j := plan.position(w, i); j >= 0 && p.EdgeLabel(pv, w) != g.EdgeLabel(dv, prefix[j]) {
				return false
			}
		}
	}
	if plan.Induced {
		for j, w := range plan.Order[:i] {
			if !p.HasEdge(pv, w) && g.HasEdge(dv, prefix[j]) {
				return false
			}
		}
	}
	return true
}
