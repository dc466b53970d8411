// Package embed implements unsupervised vertex embeddings from graph
// topology — DeepWalk and node2vec random walks feeding a skip-gram model
// with negative sampling — plus access to the classic structural-feature
// baseline. These are the "vertex analytics + ML" tools of Figure 1 path 2,
// and the subjects of the paper's cited claim (Stolman et al.) that classic
// structural features can outperform factorization/embedding methods for
// community labeling, reproduced in the claim-struct experiment.
package embed

import (
	"math/rand"

	"graphsys/internal/graph"
)

// RandomWalks generates walksPerVertex uniform random walks of length
// walkLen from every vertex (DeepWalk's corpus). Walks stop early at
// isolated vertices.
func RandomWalks(g *graph.Graph, walksPerVertex, walkLen int, seed int64) [][]graph.V {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	walks := make([][]graph.V, 0, n*walksPerVertex)
	for w := 0; w < walksPerVertex; w++ {
		for v := 0; v < n; v++ {
			walk := make([]graph.V, 0, walkLen+1)
			cur := graph.V(v)
			walk = append(walk, cur)
			for s := 0; s < walkLen; s++ {
				ns := g.Neighbors(cur)
				if len(ns) == 0 {
					break
				}
				cur = ns[rng.Intn(len(ns))]
				walk = append(walk, cur)
			}
			walks = append(walks, walk)
		}
	}
	return walks
}

// Node2VecWalks generates second-order biased walks (Grover & Leskovec):
// returning to the previous vertex is weighted 1/p, staying in the previous
// vertex's neighborhood 1, and moving outward 1/q. Small q → outward/DFS-like
// exploration; large q (and large p) → BFS-like local walks.
func Node2VecWalks(g *graph.Graph, walksPerVertex, walkLen int, p, q float64, seed int64) [][]graph.V {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	walks := make([][]graph.V, 0, n*walksPerVertex)
	for w := 0; w < walksPerVertex; w++ {
		for v := 0; v < n; v++ {
			walk := make([]graph.V, 0, walkLen+1)
			cur := graph.V(v)
			prev := graph.V(-1)
			walk = append(walk, cur)
			for s := 0; s < walkLen; s++ {
				ns := g.Neighbors(cur)
				if len(ns) == 0 {
					break
				}
				var next graph.V
				if prev < 0 {
					next = ns[rng.Intn(len(ns))]
				} else {
					// rejection sampling of the n2v transition kernel
					maxW := 1.0
					if 1/p > maxW {
						maxW = 1 / p
					}
					if 1/q > maxW {
						maxW = 1 / q
					}
					for {
						cand := ns[rng.Intn(len(ns))]
						var wgt float64
						switch {
						case cand == prev:
							wgt = 1 / p
						case g.HasEdge(prev, cand):
							wgt = 1
						default:
							wgt = 1 / q
						}
						if rng.Float64() < wgt/maxW {
							next = cand
							break
						}
					}
				}
				prev, cur = cur, next
				walk = append(walk, cur)
			}
			walks = append(walks, walk)
		}
	}
	return walks
}
