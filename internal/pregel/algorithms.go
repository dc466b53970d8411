package pregel

import (
	"math"

	"graphsys/internal/graph"
)

// PageRank runs iters supersteps of damped PageRank (d=0.85) and returns the
// per-vertex ranks. It is the canonical "vertex analytics" scoring workload
// of Figure 1's path 1 (object ranking / biomolecule prioritisation). It is
// source-capable: with cfg.Source set, g may be nil and adjacency comes from
// the out-of-core storage layer.
func PageRank(g *graph.Graph, iters int, cfg Config) ([]float64, *Result[float64], error) {
	nv := 0
	if g != nil {
		nv = g.NumVertices()
	} else if cfg.Source != nil {
		nv = cfg.Source.NumVertices()
	}
	n := float64(nv)
	const d = 0.85
	prog := Program[float64, float64]{
		Init: func(g *graph.Graph, v graph.V) float64 { return 1 / n },
		Compute: func(ctx *Context[float64], v graph.V, state *float64, msgs []float64) {
			if ctx.Superstep() > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				*state = (1-d)/n + d*sum
			}
			if ctx.Superstep() < iters {
				deg := ctx.Degree(v)
				if deg > 0 {
					ctx.SendToNeighbors(v, *state/float64(deg))
				}
			} else {
				ctx.VoteToHalt()
			}
		},
		Combine: func(a, b float64) float64 { return a + b },
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.States, res, nil
}

// HashMinCC computes connected components with the HashMin label-propagation
// algorithm: every vertex repeatedly adopts the minimum id seen in its
// neighborhood. It converges in O(graph diameter) supersteps — the
// O(log |V|)-round regime where the paper says TLAV systems shine.
func HashMinCC(g *graph.Graph, cfg Config) ([]int32, *Result[int32], error) {
	prog := Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			min := *state
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(v, min)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				if m < min {
					min = m
				}
			}
			if min < *state {
				*state = min
				ctx.SendToNeighbors(v, min)
			}
			ctx.VoteToHalt()
		},
		Combine: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.States, res, nil
}

// SSSP computes hop distances from source (unweighted shortest paths) with
// message-pruned Bellman–Ford. Unreachable vertices get -1.
func SSSP(g *graph.Graph, source graph.V, cfg Config) ([]int32, *Result[int32], error) {
	const inf = math.MaxInt32
	prog := Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 {
			if v == source {
				return 0
			}
			return inf
		},
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			best := *state
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best < *state || (ctx.Superstep() == 0 && v == source) {
				*state = best
				ctx.SendToNeighbors(v, best+1)
			}
			ctx.VoteToHalt()
		},
		Combine: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := make([]int32, len(res.States))
	for i, d := range res.States {
		if d == inf {
			out[i] = -1
		} else {
			out[i] = d
		}
	}
	res.States = out
	return out, res, nil
}

// TriangleCountMR counts triangles the way the MapReduce/TLAV algorithm the
// paper's introduction criticises does: every vertex materialises its wedges
// as messages (one per wedge) and the apex's neighbor closes them. Its
// message volume is Σ_v C(d⁺(v),2) — the quadratic blow-up that makes the
// 1636-machine MapReduce job slower than a 1-core merge-based counter
// (Chu & Cheng). Compare with graph.TriangleCount.
func TriangleCountMR(g *graph.Graph, cfg Config) (int64, *Result[int64], error) {
	type wedge = int64 // packed (w) id to test; target vertex implicit
	prog := Program[int64, wedge]{
		Compute: func(ctx *Context[wedge], v graph.V, state *int64, msgs []wedge) {
			switch ctx.Superstep() {
			case 0:
				// send each wedge (v;u,w), u<w, deg-ordered, to u for closing
				ns := ctx.Graph().Neighbors(v)
				var outs []graph.V
				for _, u := range ns {
					if degLess(ctx.Graph(), v, u) {
						outs = append(outs, u)
					}
				}
				for i := 0; i < len(outs); i++ {
					for j := i + 1; j < len(outs); j++ {
						ctx.Send(outs[i], wedge(outs[j]))
					}
				}
				ctx.VoteToHalt()
			case 1:
				for _, m := range msgs {
					if ctx.Graph().HasEdge(v, graph.V(m)) {
						*state++
					}
				}
				ctx.VoteToHalt()
			}
		},
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return 0, nil, err
	}
	var total int64
	for _, s := range res.States {
		total += s
	}
	return total, res, nil
}

// degLess orders vertices by (degree, id) — the orientation used by ordered
// triangle counting.
func degLess(g *graph.Graph, a, b graph.V) bool {
	da, db := g.Degree(a), g.Degree(b)
	if da != db {
		return da < db
	}
	return a < b
}

// RandomWalkVisits runs walksPerVertex random walkers of length walkLen from
// every vertex and returns per-vertex visit counts — a TLAV "random walk"
// workload (the basis of DeepWalk-style sampling and PPR scoring). Walkers
// move as messages; randomness is a deterministic hash of (walker, step).
func RandomWalkVisits(g *graph.Graph, walksPerVertex, walkLen int, seed int64, cfg Config) ([]int64, *Result[int64], error) {
	type walker struct {
		id   int64
		step int32
	}
	prog := Program[int64, walker]{
		Compute: func(ctx *Context[walker], v graph.V, state *int64, msgs []walker) {
			forward := func(wk walker) {
				if int(wk.step) >= walkLen {
					return
				}
				ns := ctx.Graph().Neighbors(v)
				if len(ns) == 0 {
					return
				}
				r := splitmix64(uint64(seed) ^ uint64(wk.id)*0x9e3779b97f4a7c15 ^ uint64(wk.step)<<32)
				next := ns[r%uint64(len(ns))]
				ctx.Send(next, walker{wk.id, wk.step + 1})
			}
			if ctx.Superstep() == 0 {
				for k := 0; k < walksPerVertex; k++ {
					*state++ // walk visits its start
					forward(walker{id: int64(v)*1_000_003 + int64(k), step: 0})
				}
				ctx.VoteToHalt()
				return
			}
			for _, wk := range msgs {
				*state++
				forward(wk)
			}
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.States, res, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
