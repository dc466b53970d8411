// Package partition implements the graph partitioning strategies the paper's
// GNN section compares: hash and range placement, LDG streaming, a METIS-like
// multilevel edge-cut minimiser (DistDGL/DGCL, and DistGNN's trainer here),
// BFS-Voronoi over-partitioning from seed vertices (ByteGNN/BGL), and
// P³-style feature-dimension partitioning. DistGNN's vertex-cut edge
// partitioning is not reproduced.
package partition

import (
	"math/rand"
	"sort"

	"graphsys/internal/graph"
)

// Partition assigns every vertex to one of K parts.
type Partition struct {
	Assign []int // len = NumVertices
	K      int
}

// EdgeCut returns the number of undirected edges crossing parts.
func (p *Partition) EdgeCut(g *graph.Graph) int64 {
	var cut int64
	g.EdgesOnce(func(u, v graph.V) {
		if p.Assign[u] != p.Assign[v] {
			cut++
		}
	})
	return cut
}

// Sizes returns the number of vertices in each part.
func (p *Partition) Sizes() []int {
	s := make([]int, p.K)
	for _, a := range p.Assign {
		s[a]++
	}
	return s
}

// Imbalance returns maxPartSize / idealSize (1.0 = perfectly balanced).
func (p *Partition) Imbalance() float64 {
	sizes := p.Sizes()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	ideal := float64(len(p.Assign)) / float64(p.K)
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// Hash assigns vertices to parts by multiplicative hashing — the zero-effort
// baseline with ~(1-1/k) of edges cut on any graph.
func Hash(g *graph.Graph, k int) *Partition {
	p := &Partition{Assign: make([]int, g.NumVertices()), K: k}
	for v := range p.Assign {
		h := uint64(v) * 0x9e3779b97f4a7c15
		p.Assign[v] = int(h % uint64(k))
	}
	return p
}

// Range assigns contiguous vertex-id ranges to parts. On graphs with id
// locality (grids, crawl orders) this beats hashing.
func Range(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	p := &Partition{Assign: make([]int, n), K: k}
	for v := 0; v < n; v++ {
		p.Assign[v] = v * k / n
	}
	return p
}

// LDG implements Linear Deterministic Greedy streaming partitioning:
// vertices arrive in order and each is placed on the part holding most of
// its already-placed neighbors, damped by a capacity penalty.
func LDG(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	p := &Partition{Assign: make([]int, n), K: k}
	for i := range p.Assign {
		p.Assign[i] = -1
	}
	capacity := float64(n)/float64(k) + 1
	sizes := make([]float64, k)
	neigh := make([]float64, k)
	for v := 0; v < n; v++ {
		for i := range neigh {
			neigh[i] = 0
		}
		for _, w := range g.Neighbors(graph.V(v)) {
			if a := p.Assign[w]; a >= 0 {
				neigh[a]++
			}
		}
		best, bestScore := 0, -1.0
		for i := 0; i < k; i++ {
			score := neigh[i] * (1 - sizes[i]/capacity)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		p.Assign[v] = best
		sizes[best]++
	}
	return p
}

// Metis is a METIS-like multilevel partitioner: (1) coarsen by heavy-edge
// matching until the graph is small, (2) greedily partition the coarsest
// graph, (3) project back, refining with boundary Kernighan–Lin moves at each
// level. It is the stand-in for METIS used by DistDGL and DGCL.
func Metis(g *graph.Graph, k int) *Partition {
	return metisRecursive(g, k, 0)
}

const metisCoarsestSize = 64

func metisRecursive(g *graph.Graph, k int, depth int) *Partition {
	n := g.NumVertices()
	if n <= metisCoarsestSize || depth > 30 {
		return greedyGrow(g, k)
	}
	// --- coarsen: heavy-edge matching (unweighted ⇒ random maximal matching
	// biased to low-degree first, which approximates HEM on simple graphs)
	match := make([]graph.V, n)
	for i := range match {
		match[i] = -1
	}
	order := make([]graph.V, n)
	for i := range order {
		order[i] = graph.V(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Degree(order[i]) < g.Degree(order[j])
	})
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		match[v] = v // self-match by default
		for _, w := range g.Neighbors(v) {
			if match[w] == -1 {
				match[v] = w
				match[w] = v
				break
			}
		}
	}
	// build coarse graph
	coarseID := make([]graph.V, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	nc := 0
	for v := graph.V(0); int(v) < n; v++ {
		if coarseID[v] != -1 {
			continue
		}
		coarseID[v] = graph.V(nc)
		if match[v] != v {
			coarseID[match[v]] = graph.V(nc)
		}
		nc++
	}
	if nc == n {
		// matching made no progress (e.g. graph with no edges): stop here
		return greedyGrow(g, k)
	}
	cb := graph.NewBuilder(nc, false)
	g.EdgesOnce(func(u, v graph.V) {
		cu, cv := coarseID[u], coarseID[v]
		if cu != cv {
			cb.AddEdge(cu, cv)
		}
	})
	coarse := cb.Build()
	cp := metisRecursive(coarse, k, depth+1)
	// --- project back
	p := &Partition{Assign: make([]int, n), K: k}
	for v := 0; v < n; v++ {
		p.Assign[v] = cp.Assign[coarseID[v]]
	}
	refine(g, p, 2)
	return p
}

// greedyGrow partitions by growing k BFS regions from spread seeds, then
// balancing.
func greedyGrow(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	p := &Partition{Assign: make([]int, n), K: k}
	for i := range p.Assign {
		p.Assign[i] = -1
	}
	if n == 0 {
		return p
	}
	target := (n + k - 1) / k
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, k)
	queue := make([][]graph.V, k)
	for i := 0; i < k; i++ {
		s := graph.V(rng.Intn(n))
		queue[i] = append(queue[i], s)
	}
	remaining := n
	for remaining > 0 {
		progress := false
		for i := 0; i < k && remaining > 0; i++ {
			if sizes[i] >= target {
				continue
			}
			for len(queue[i]) > 0 {
				v := queue[i][0]
				queue[i] = queue[i][1:]
				if p.Assign[v] != -1 {
					continue
				}
				p.Assign[v] = i
				sizes[i]++
				remaining--
				progress = true
				for _, w := range g.Neighbors(v) {
					if p.Assign[w] == -1 {
						queue[i] = append(queue[i], w)
					}
				}
				break
			}
		}
		if !progress {
			// seed any unassigned vertex into the smallest part
			smallest := 0
			for i := 1; i < k; i++ {
				if sizes[i] < sizes[smallest] {
					smallest = i
				}
			}
			for v := 0; v < n; v++ {
				if p.Assign[v] == -1 {
					queue[smallest] = append(queue[smallest], graph.V(v))
					break
				}
			}
		}
	}
	refine(g, p, 2)
	return p
}

// refine performs passes of boundary-vertex moves that reduce the cut while
// keeping parts within 10% of ideal size (simplified Kernighan–Lin / FM).
func refine(g *graph.Graph, p *Partition, passes int) {
	n := g.NumVertices()
	sizes := p.Sizes()
	maxSize := int(float64(n)/float64(p.K)*1.1) + 1
	gains := make([]int, p.K)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			cur := p.Assign[v]
			for i := range gains {
				gains[i] = 0
			}
			for _, w := range g.Neighbors(graph.V(v)) {
				gains[p.Assign[w]]++
			}
			best, bestGain := cur, gains[cur]
			for i := 0; i < p.K; i++ {
				if i != cur && gains[i] > bestGain && sizes[i] < maxSize {
					best, bestGain = i, gains[i]
				}
			}
			if best != cur {
				p.Assign[v] = best
				sizes[cur]--
				sizes[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
