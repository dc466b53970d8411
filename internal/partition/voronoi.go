package partition

import (
	"sort"

	"graphsys/internal/graph"
)

// BFSVoronoi implements the ByteGNN/BGL partitioning heuristic: the graph is
// over-partitioned into small blocks by running simultaneous BFS from the
// train/validation/test seed vertices until the BFS frontiers meet (i.e. the
// graph Voronoi diagram of the seeds), and the blocks are then assigned to k
// workers in a streaming fashion balancing block weight. Because a GNN
// workload only touches the few-hop neighborhoods of seed vertices, keeping
// each seed's Voronoi cell intact localises most feature accesses, even when
// the global edge cut is worse than METIS's.
func BFSVoronoi(g *graph.Graph, seeds []graph.V, k int) *Partition {
	n := g.NumVertices()
	block := make([]int, n)
	for i := range block {
		block[i] = -1
	}
	// multi-source BFS: block i grows from seeds[i]
	frontier := make([]graph.V, 0, len(seeds))
	for i, s := range seeds {
		if block[s] == -1 {
			block[s] = i
			frontier = append(frontier, s)
		}
	}
	for len(frontier) > 0 {
		var next []graph.V
		for _, v := range frontier {
			bv := block[v]
			for _, w := range g.Neighbors(v) {
				if block[w] == -1 {
					block[w] = bv
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	// vertices unreachable from any seed go to a residual block per component
	numBlocks := len(seeds)
	for v := 0; v < n; v++ {
		if block[v] == -1 {
			// flood fill this unreachable region as one extra block
			id := numBlocks
			numBlocks++
			stack := []graph.V{graph.V(v)}
			block[v] = id
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range g.Neighbors(x) {
					if block[w] == -1 {
						block[w] = id
						stack = append(stack, w)
					}
				}
			}
		}
	}
	// streaming block → worker assignment, heaviest block first
	weights := make([]int64, numBlocks)
	for _, b := range block {
		weights[b]++
	}
	blockWorker := make([]int, numBlocks)
	type bw struct {
		id int
		w  int64
	}
	order := make([]bw, numBlocks)
	for i, w := range weights {
		order[i] = bw{i, w}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].w > order[j].w })
	loads := make([]int64, k)
	for _, b := range order {
		best := 0
		for i := 1; i < k; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		blockWorker[b.id] = best
		loads[best] += b.w
	}
	p := &Partition{Assign: make([]int, n), K: k}
	for v := 0; v < n; v++ {
		p.Assign[v] = blockWorker[block[v]]
	}
	return p
}

// FeatureDim describes P³'s partitioning: instead of partitioning the graph
// topology, the vertex feature matrix is split along the feature dimension,
// with worker w owning dims [Lo[w], Hi[w]) of every vertex. Hidden-layer
// computation is then model-parallel in layer 1 (push) and data-parallel
// afterwards (pull).
type FeatureDim struct {
	K      int
	Lo, Hi []int
}

// NewFeatureDim splits dim feature dimensions across k workers evenly.
func NewFeatureDim(dim, k int) *FeatureDim {
	fd := &FeatureDim{K: k, Lo: make([]int, k), Hi: make([]int, k)}
	for w := 0; w < k; w++ {
		fd.Lo[w] = dim * w / k
		fd.Hi[w] = dim * (w + 1) / k
	}
	return fd
}
