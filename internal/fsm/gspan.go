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
	type rootTask struct {
		code  DFSCode
		projs []*embedding
	}
	var tasks []rootTask
	for t, projs := range gatherRoots(db.Graphs) {
		if supportOf(projs) >= cfg.MinSupport {
			tasks = append(tasks, rootTask{DFSCode{t}, projs})
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].code[0].Less(tasks[j].code[0]) })

	out, _ := tthinker.Run(tasks, func(ctx *tthinker.Ctx[rootTask, []Pattern], t rootTask) {
		var local []Pattern
		mineSubtree(db.Graphs, t.code, t.projs, cfg, &local)
		ctx.Emit(local)
	}, func(a, b []Pattern) []Pattern { return append(a, b...) }, tthinker.Config{Workers: cfg.Workers})
	sort.Slice(out, func(i, j int) bool { return out[i].Code.String() < out[j].Code.String() })
	return out
}

// gatherRoots collects the projections of every root tuple of graphs,
// grouped by tuple.
func gatherRoots(graphs []*graph.Graph) map[EdgeCode][]*embedding {
	roots := map[EdgeCode][]*embedding{}
	eachRoot(graphs, func(t EdgeCode, gid int, u, v graph.V) {
		roots[t] = append(roots[t], rootEmbedding(gid, u, v))
	})
	return roots
}

// gatherExtensions collects every rightmost-path extension of code over its
// projections, grouped by edge tuple (the projected databases of gSpan).
func gatherExtensions(graphs []*graph.Graph, code DFSCode, projs []*embedding) map[EdgeCode][]*embedding {
	ext := map[EdgeCode][]*embedding{}
	eachExtension(graphs, code, projs, func(t EdgeCode, e *embedding, newV graph.V) {
		ext[t] = append(ext[t], e.extend(t, newV))
	})
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
func mineSubtree(graphs []*graph.Graph, code DFSCode, projs []*embedding, cfg MineConfig, out *[]Pattern) {
	*out = append(*out, Pattern{Code: append(DFSCode(nil), code...), Support: supportOf(projs)})
	if cfg.MaxEdges > 0 && len(code) >= cfg.MaxEdges {
		return
	}
	ext := gatherExtensions(graphs, code, projs)
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
		mineSubtree(graphs, child, children, cfg, out)
	}
}
