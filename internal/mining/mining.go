// Package mining implements the breadth-first subgraph-extension computing
// model of Arabesque, RStream and Pangolin: all embeddings (connected induced
// subgraph instances) of size i are materialised before any embedding of size
// i+1 is generated. The engine is exact — each connected induced subgraph is
// enumerated exactly once via ESU-style (Wernicke) extension-set filtering —
// and it meters the peak number of materialised embeddings, which is the
// quantity the paper identifies as this model's scalability Achilles heel
// ("subgraph materialization cost … grows exponentially").
package mining

import (
	"slices"

	"graphsys/internal/graph"
	"graphsys/internal/tensor"
)

// Embedding is a materialised subgraph instance: the vertex set (in
// generation order, Sub[0] is the minimum-id root) plus the ESU extension
// set of vertices that may still be added.
type Embedding struct {
	Sub []graph.V
	Ext []graph.V
}

// Config controls an exploration run.
type Config struct {
	Workers int // parallel extension workers (default 4)
	// MaxEmbeddings aborts the run when a level would materialise more than
	// this many embeddings (0 = unlimited). Models device/host memory limits.
	MaxEmbeddings int64
}

// Stats reports the BFS-materialisation footprint of a run.
type Stats struct {
	LevelSizes []int64 // embeddings materialised at each level (index = size-1)
	Peak       int64   // max over LevelSizes — the BFS memory bottleneck
	Total      int64   // total embeddings generated
	Aborted    bool    // true if MaxEmbeddings was exceeded
}

// Explore enumerates all connected induced subgraphs of exactly size k,
// calling process (if non-nil) for each complete embedding, concurrently.
// filter (if non-nil) prunes embeddings at every intermediate size; a pruned
// embedding is not extended (Arabesque's shouldExpand). Levels are split
// into cfg.Workers contiguous chunks on the tensor pool, so Stats and the
// embeddings processed do not depend on the worker count.
func Explore(g *graph.Graph, k int, filter func(sub []graph.V) bool, process func(sub []graph.V), cfg Config) Stats {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	n := g.NumVertices()
	stats := Stats{}
	if k <= 0 || n == 0 {
		return stats
	}
	// level 1: one embedding per vertex, Ext = {u ∈ N(v) : u > v}
	level := make([]Embedding, 0, n)
	for v := graph.V(0); int(v) < n; v++ {
		var ext []graph.V
		for _, u := range g.Neighbors(v) {
			if u > v {
				ext = append(ext, u)
			}
		}
		level = append(level, Embedding{Sub: []graph.V{v}, Ext: ext})
	}
	for size := 1; ; size++ {
		stats.LevelSizes = append(stats.LevelSizes, int64(len(level)))
		stats.Peak = max(stats.Peak, int64(len(level)))
		stats.Total += int64(len(level))
		if stats.Aborted || len(level) == 0 {
			return stats
		}
		if filter != nil {
			kept := level[:0]
			for _, e := range level {
				if filter(e.Sub) {
					kept = append(kept, e)
				}
			}
			level = kept
		}
		if size == k {
			break
		}
		level = expandLevel(g, level, cfg.Workers)
		stats.Aborted = cfg.MaxEmbeddings > 0 && int64(len(level)) > cfg.MaxEmbeddings
	}
	if process != nil {
		tensor.ParallelChunks(len(level), cfg.Workers, func(_, lo, hi int) {
			for _, e := range level[lo:hi] {
				process(e.Sub)
			}
		})
	}
	return stats
}

// expandLevel applies one ESU extension step to every embedding, one
// contiguous chunk per worker, and concatenates the children in chunk order.
func expandLevel(g *graph.Graph, level []Embedding, workers int) []Embedding {
	outs := make([][]Embedding, workers)
	tensor.ParallelChunks(len(level), workers, func(c, lo, hi int) {
		mark := make([]bool, g.NumVertices())
		for _, e := range level[lo:hi] {
			outs[c] = extendESU(g, e, mark, outs[c])
		}
	})
	return slices.Concat(outs...)
}

// extendESU produces the children of e under the ESU rule: take each w from
// the extension set in order; the child's extension set is the remaining
// extension vertices plus the *exclusive* neighbors of w (neighbors of w that
// are greater than the root and not adjacent to, or part of, the current
// subgraph). This yields each connected induced subgraph exactly once.
// mark is the caller's all-false scratch array over the vertices; extendESU
// marks e's closed neighbourhood in it and clears the same entries before it
// returns.
func extendESU(g *graph.Graph, e Embedding, mark []bool, out []Embedding) []Embedding {
	root := e.Sub[0]
	markClosedNeighborhood(g, e.Sub, mark, true)
	for i, w := range e.Ext {
		child := Embedding{
			Sub: append(append(make([]graph.V, 0, len(e.Sub)+1), e.Sub...), w),
		}
		child.Ext = append(child.Ext, e.Ext[i+1:]...)
		for _, u := range g.Neighbors(w) {
			if u > root && !mark[u] {
				child.Ext = append(child.Ext, u)
			}
		}
		out = append(out, child)
	}
	markClosedNeighborhood(g, e.Sub, mark, false)
	return out
}

// markClosedNeighborhood sets mark[u] = on for every u in sub or adjacent to
// a vertex of sub.
func markClosedNeighborhood(g *graph.Graph, sub []graph.V, mark []bool, on bool) {
	for _, v := range sub {
		mark[v] = on
		for _, u := range g.Neighbors(v) {
			mark[u] = on
		}
	}
}
