// Package blogel implements block-centric ("think like a block") computation
// in the style of Blogel (Yan et al., PVLDB'14), one of the TLAV-family
// systems the paper's presenters built: vertices are grouped into blocks
// (connected partitions), each block computes serially over its whole
// subgraph within a superstep, and only inter-block messages cross the
// network. For graph problems whose hard instances are caused by large
// diameters or skewed components — connected components being the canonical
// example — block-level computation collapses whole regions into single
// quotient vertices, cutting both rounds and messages by orders of
// magnitude versus vertex-centric execution.
package blogel

import (
	"graphsys/internal/graph"
	"graphsys/internal/obs"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/storage"
)

// Blocks is a block decomposition of a graph: a partition whose parts have
// been refined into connected blocks, plus the quotient (block-level) graph.
// The quotient and the vertex→block map are all that block-centric
// algorithms over the quotient need; the adjacency stays with its source.
type Blocks struct {
	BlockOf  []int32 // vertex -> block id
	NumBlock int
	Quotient *graph.Graph // one vertex per block; edge iff some cross edge
}

// BuildSource refines an arbitrary partition into connected blocks (each
// part is split into its connected components — Blogel's Voronoi/partitioner
// step guarantees connectivity the same way) and constructs the quotient
// graph. It reads adjacency through a GraphSource: an in-memory graph is
// storage.InMemory(g).Handle(0); for disk sources the refinement BFS reads
// through the handle's block cache and the quotient construction is one
// sequential block scan, so the peak memory is the O(|V|) blockOf array plus
// the quotient — never the full adjacency. The decomposition depends only
// on the graph and the partition, not on the source.
func BuildSource(src storage.GraphSource, part *partition.Partition) (*Blocks, error) {
	n := src.NumVertices()
	blockOf := make([]int32, n)
	for i := range blockOf {
		blockOf[i] = -1
	}
	next := int32(0)
	var stack []graph.V
	var frontier []graph.V // copy of the current Neighbors view (stack outlives it)
	for s := 0; s < n; s++ {
		if blockOf[s] != -1 {
			continue
		}
		id := next
		next++
		blockOf[s] = id
		stack = append(stack[:0], graph.V(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ns, err := src.Neighbors(v)
			if err != nil {
				return nil, err
			}
			frontier = frontier[:0]
			for _, w := range ns {
				if blockOf[w] == -1 && part.Assign[w] == part.Assign[s] {
					blockOf[w] = id
					frontier = append(frontier, w)
				}
			}
			stack = append(stack, frontier...)
		}
	}
	qb := graph.NewBuilder(int(next), false)
	directed := src.Directed()
	err := src.Scan(func(u graph.V, adj []graph.V) error {
		for _, v := range adj {
			if !directed && u >= v {
				continue // visit each undirected edge once, as EdgesOnce does
			}
			if blockOf[u] != blockOf[v] {
				qb.AddEdge(graph.V(blockOf[u]), graph.V(blockOf[v]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Blocks{BlockOf: blockOf, NumBlock: int(next), Quotient: qb.Build()}, nil
}

// CCResult reports a block-centric connected-components run.
type CCResult struct {
	Labels     []int32
	Supersteps int
	Messages   int64
	Trace      *obs.Trace // non-nil when run with pregel.Config.Trace
}

// ConnectedComponents computes connected components block-centrically:
// every block resolves its interior serially (free — blocks are connected by
// construction, so a block IS one local component), then HashMin label
// propagation runs over the quotient graph, whose size is the number of
// blocks rather than the number of vertices. Compare with pregel.HashMinCC:
// same answer, far fewer rounds and messages (the Blogel result).
func (b *Blocks) ConnectedComponents(workers int) (CCResult, error) {
	return b.ConnectedComponentsCfg(pregel.Config{Workers: workers})
}

// ConnectedComponentsCfg is ConnectedComponents with a full engine config:
// setting cfg.Trace attaches the quotient run's observability trace, and
// cfg.Topology/cfg.Faults/cfg.Partition configure the quotient-level cluster.
// An invalid config is reported as an error without starting the run.
func (b *Blocks) ConnectedComponentsCfg(cfg pregel.Config) (CCResult, error) {
	qLabels, res, err := pregel.HashMinCC(b.Quotient, cfg)
	if err != nil {
		return CCResult{}, err
	}
	labels := make([]int32, len(b.BlockOf))
	for v := range labels {
		labels[v] = qLabels[b.BlockOf[v]]
	}
	if res.Trace != nil {
		res.Trace.Workload = "blogel/cc"
	}
	return CCResult{
		Labels:     labels,
		Supersteps: res.Supersteps,
		Messages:   res.Net.Messages + res.Net.LocalMessages,
		Trace:      res.Trace,
	}, nil
}

// PageRank runs Blogel-style two-phase PageRank: standard vertex-centric
// PageRank, but with a block-level warm start — each block first runs
// PageRank on its local subgraph to convergence and uses the local scores as
// the initial guess, which cuts the global iterations needed for a given
// residual (Blogel's "block-level computation first" pattern). g is the
// graph the blocks were built from.
func (b *Blocks) PageRank(g *graph.Graph, globalIters int) ([]float64, error) {
	n := g.NumVertices()
	// local phase: exact PageRank on each block's induced subgraph
	init := make([]float64, n)
	byBlock := make([][]graph.V, b.NumBlock)
	for v := 0; v < n; v++ {
		byBlock[b.BlockOf[v]] = append(byBlock[b.BlockOf[v]], graph.V(v))
	}
	for _, vs := range byBlock {
		if len(vs) == 0 {
			continue
		}
		sub, newToOld := g.InducedSubgraph(vs)
		local, _, err := pregel.PageRank(sub, 15, pregel.Config{Workers: 1})
		if err != nil {
			return nil, err
		}
		scale := float64(len(vs)) / float64(n)
		for i, old := range newToOld {
			init[old] = local[i] * scale
		}
	}
	// global phase: damped iterations from the warm start
	const d = 0.85
	cur := init
	for it := 0; it < globalIters; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			deg := g.Degree(graph.V(v))
			if deg == 0 {
				continue
			}
			share := cur[v] / float64(deg)
			for _, u := range g.Neighbors(graph.V(v)) {
				next[u] += share
			}
		}
		for v := 0; v < n; v++ {
			next[v] = (1-d)/float64(n) + d*next[v]
		}
		cur = next
	}
	return cur, nil
}
