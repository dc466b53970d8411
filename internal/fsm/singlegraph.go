package fsm

import (
	"sort"

	"graphsys/internal/graph"
	"graphsys/internal/tthinker"
)

// MNI computes the minimum-non-identical-image support of a pattern given
// all its embeddings: for each pattern vertex, count the distinct data
// vertices it maps to across embeddings; MNI is the minimum of those counts.
// MNI is anti-monotone (GraMi, PVLDB'14), which makes single-graph FSM
// prunable.
func MNI(numVertices int, projs []*embedding) int {
	if len(projs) == 0 {
		return 0
	}
	images := make([]map[graph.V]bool, numVertices)
	for i := range images {
		images[i] = map[graph.V]bool{}
	}
	for _, e := range projs {
		for i, v := range e.vertices {
			images[i][v] = true
		}
	}
	min := len(projs) + 1<<30
	for _, img := range images {
		if len(img) < min {
			min = len(img)
		}
	}
	return min
}

// MineSingleGraph mines frequent patterns of a single big labeled graph with
// MNI support ≥ cfg.MinSupport, in the style of GraMi/T-FSM: patterns grow by
// canonical DFS-code extension exactly as in transactional gSpan, but support
// of each candidate is an independent evaluation task — T-FSM decomposes
// support evaluation into subgraph-matching tasks executed in parallel, which
// is what the per-pattern expansion tasks below do, on the tthinker task
// engine.
func MineSingleGraph(g *graph.Graph, cfg MineConfig) []Pattern {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 1
	}
	graphs := []*graph.Graph{g}
	type task struct {
		code  DFSCode
		projs []*embedding
	}
	var frontier []task
	var out []Pattern
	for t, projs := range gatherRoots(graphs) {
		if MNI(2, projs) >= cfg.MinSupport {
			frontier = append(frontier, task{DFSCode{t}, projs})
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].code[0].Less(frontier[j].code[0]) })

	// level-wise growth with parallel support evaluation per extension
	for len(frontier) > 0 {
		for _, t := range frontier {
			out = append(out, Pattern{Code: t.code, Support: MNI(t.code.NumVertices(), t.projs)})
		}
		candidates, _ := tthinker.Run(frontier, func(ctx *tthinker.Ctx[task, []task], t task) {
			if cfg.MaxEdges > 0 && len(t.code) >= cfg.MaxEdges {
				return
			}
			var local []task
			for tuple, projs := range gatherExtensions(graphs, t.code, t.projs) {
				child := append(append(DFSCode(nil), t.code...), tuple)
				if MNI(child.NumVertices(), projs) < cfg.MinSupport {
					continue
				}
				if !child.IsMin() {
					continue
				}
				local = append(local, task{child, projs})
			}
			ctx.Emit(local)
		}, func(a, b []task) []task { return append(a, b...) }, tthinker.Config{Workers: cfg.Workers})
		sort.Slice(candidates, func(i, j int) bool {
			return candidates[i].code.String() < candidates[j].code.String()
		})
		frontier = candidates
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code.String() < out[j].Code.String() })
	return out
}
