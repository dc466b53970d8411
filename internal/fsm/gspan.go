package fsm

import (
	"sort"

	"graphsys/internal/graph"
	"graphsys/internal/tthinker"
)

// Pattern is a mined frequent pattern.
type Pattern struct {
	Code    DFSCode
	Support int
}

// Graph materialises the pattern graph.
func (p Pattern) Graph() *graph.Graph { return p.Code.Graph() }

// MineConfig controls transactional mining.
type MineConfig struct {
	MinSupport int // minimum number of transactions containing the pattern
	MaxEdges   int // stop growing patterns beyond this many edges (0 = no limit)
	Workers    int // parallel root-subtree workers (default 4)
}

// embedding is a projection of a DFS code into one transaction.
type embedding struct {
	gid      int
	vertices []graph.V
	edges    map[int64]bool
}

func (e *embedding) clone() *embedding {
	c := &embedding{gid: e.gid, vertices: append([]graph.V(nil), e.vertices...),
		edges: make(map[int64]bool, len(e.edges)+1)}
	for k := range e.edges {
		c.edges[k] = true
	}
	return c
}

func (e *embedding) contains(v graph.V) bool {
	for _, x := range e.vertices {
		if x == v {
			return true
		}
	}
	return false
}

// MineTransactions mines all frequent connected subgraph patterns of db with
// gSpan (canonical DFS codes, rightmost-path extension, prefix projection).
// Each frequent 1-edge root pattern spawns an independent projected-database
// mining task; tasks run on the tthinker task engine — PrefixFPM's
// parallelisation of the pattern search tree.
func MineTransactions(db *graph.TransactionDB, cfg MineConfig) []Pattern {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 1
	}
	// root tuples: every edge of every transaction, both orientations
	roots := map[EdgeCode][]*embedding{}
	for gid, g := range db.Graphs {
		for u := graph.V(0); int(u) < g.NumVertices(); u++ {
			for i, v := range g.Neighbors(u) {
				t := EdgeCode{0, 1, g.Label(u), g.EdgeLabelAt(u, i), g.Label(v)}
				if t.FromL > t.ToL {
					continue // the reversed orientation yields the smaller code
				}
				roots[t] = append(roots[t], &embedding{
					gid:      gid,
					vertices: []graph.V{u, v},
					edges:    map[int64]bool{ekey(u, v): true},
				})
			}
		}
	}
	type rootTask struct {
		code  DFSCode
		projs []*embedding
	}
	var tasks []rootTask
	for t, projs := range roots {
		if supportOf(projs) >= cfg.MinSupport {
			tasks = append(tasks, rootTask{DFSCode{t}, projs})
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].code[0].Less(tasks[j].code[0]) })

	out, _ := tthinker.Run(tasks, func(ctx *tthinker.Ctx[rootTask, []Pattern], t rootTask) {
		var local []Pattern
		mineSubtree(db, t.code, t.projs, cfg, &local)
		ctx.Emit(local)
	}, func(a, b []Pattern) []Pattern { return append(a, b...) }, tthinker.Config{Workers: cfg.Workers})
	sort.Slice(out, func(i, j int) bool { return out[i].Code.String() < out[j].Code.String() })
	return out
}

// gatherExtensions collects every rightmost-path extension of code over its
// projections, grouped by edge tuple (the projected databases of gSpan).
func gatherExtensions(db *graph.TransactionDB, code DFSCode, projs []*embedding) map[EdgeCode][]*embedding {
	rmpath := code.RightmostPath()
	maxIdx := code.NumVertices() - 1
	ext := map[EdgeCode][]*embedding{}
	for _, e := range projs {
		g := db.Graphs[e.gid]
		rmv := e.vertices[rmpath[0]]
		for _, j := range rmpath[1:] {
			tv := e.vertices[j]
			if !g.HasEdge(rmv, tv) || e.edges[ekey(rmv, tv)] {
				continue
			}
			t := EdgeCode{rmpath[0], j, g.Label(rmv), g.EdgeLabel(rmv, tv), g.Label(tv)}
			c := e.clone()
			c.edges[ekey(rmv, tv)] = true
			ext[t] = append(ext[t], c)
		}
		for _, i := range rmpath {
			fv := e.vertices[i]
			for k, u := range g.Neighbors(fv) {
				if e.contains(u) {
					continue
				}
				t := EdgeCode{i, maxIdx + 1, g.Label(fv), g.EdgeLabelAt(fv, k), g.Label(u)}
				c := e.clone()
				c.vertices = append(c.vertices, u)
				c.edges[ekey(fv, u)] = true
				ext[t] = append(ext[t], c)
			}
		}
	}
	return ext
}

func supportOf(projs []*embedding) int {
	seen := map[int]bool{}
	for _, e := range projs {
		seen[e.gid] = true
	}
	return len(seen)
}

// mineSubtree recursively grows code over its projected database.
func mineSubtree(db *graph.TransactionDB, code DFSCode, projs []*embedding, cfg MineConfig, out *[]Pattern) {
	*out = append(*out, Pattern{Code: append(DFSCode(nil), code...), Support: supportOf(projs)})
	if cfg.MaxEdges > 0 && len(code) >= cfg.MaxEdges {
		return
	}
	ext := gatherExtensions(db, code, projs)
	// recurse over frequent canonical extensions in tuple order
	var tuples []EdgeCode
	for t := range ext {
		tuples = append(tuples, t)
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Less(tuples[j]) })
	for _, t := range tuples {
		children := ext[t]
		if supportOf(children) < cfg.MinSupport {
			continue
		}
		child := append(append(DFSCode(nil), code...), t)
		if !child.IsMin() {
			continue // non-canonical duplicate: pruned, another branch owns it
		}
		mineSubtree(db, child, children, cfg, out)
	}
}
