package pregel

import (
	"graphsys/internal/graph"
)

// LabelPropagation runs semi-synchronous label propagation community
// detection for the given number of rounds: every vertex adopts the most
// frequent label among its neighbors (ties broken by smaller label), a
// classic TLAV community workload.
func LabelPropagation(g *graph.Graph, rounds int, cfg Config) ([]int32, error) {
	prog := Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			if ctx.Superstep() > 0 {
				counts := map[int32]int{}
				for _, m := range msgs {
					counts[m]++
				}
				best, bestN := *state, 0
				//lint:deterministic argmax fold under the strict total order (count desc, label asc); the winner is unique for any iteration order
				for l, c := range counts {
					if c > bestN || (c == bestN && l < best) {
						best, bestN = l, c
					}
				}
				if bestN > 0 {
					*state = best
				}
			}
			if ctx.Superstep() < rounds {
				ctx.SendToNeighbors(v, *state)
			} else {
				ctx.VoteToHalt()
			}
		},
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	return res.States, nil
}

// KCore computes the vertices of the k-core TLAV-style: vertices repeatedly
// deactivate when their surviving degree drops below k, notifying neighbors
// (distributed peeling). Returns membership flags. Validated against the
// serial Batagelj–Zaversnik core numbers.
func KCore(g *graph.Graph, k int32, cfg Config) ([]bool, error) {
	type state struct {
		alive     bool
		surviving int32
	}
	prog := Program[state, int32]{
		Init: func(g *graph.Graph, v graph.V) state {
			return state{alive: true, surviving: int32(g.Degree(v))}
		},
		Compute: func(ctx *Context[int32], v graph.V, st *state, msgs []int32) {
			if !st.alive {
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				st.surviving -= m
			}
			if st.surviving < k {
				st.alive = false
				// tell neighbors they lost one supporting edge
				ctx.SendToNeighbors(v, 1)
			}
			ctx.VoteToHalt()
		},
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(res.States))
	for v, s := range res.States {
		out[v] = s.alive
	}
	return out, nil
}

// PageRankConverged runs PageRank until the L1 residual between successive
// iterations drops below eps, using a global aggregator for the convergence
// test (the Pregel aggregator pattern), and returns the ranks and the number
// of iterations used.
func PageRankConverged(g *graph.Graph, eps float64, maxIters int, cfg Config) ([]float64, int, error) {
	n := float64(g.NumVertices())
	const d = 0.85
	type prState struct {
		rank float64
	}
	prog := Program[prState, float64]{
		Init: func(g *graph.Graph, v graph.V) prState { return prState{rank: 1 / n} },
		Compute: func(ctx *Context[float64], v graph.V, st *prState, msgs []float64) {
			if ctx.Superstep() > 0 {
				sum := 0.0
				for _, m := range msgs {
					sum += m
				}
				newRank := (1-d)/n + d*sum
				delta := newRank - st.rank
				if delta < 0 {
					delta = -delta
				}
				ctx.Aggregate("residual", delta)
				st.rank = newRank
				// stop when the previous round's residual fell below eps
				if ctx.Superstep() > 1 && ctx.Agg("residual") < eps {
					ctx.VoteToHalt()
					return
				}
			}
			if ctx.Superstep() >= maxIters {
				ctx.VoteToHalt()
				return
			}
			deg := ctx.Degree(v)
			if deg > 0 {
				ctx.SendToNeighbors(v, st.rank/float64(deg))
			}
		},
		Combine: func(a, b float64) float64 { return a + b },
	}
	res, err := Run(g, prog, cfg)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(res.States))
	for v, s := range res.States {
		out[v] = s.rank
	}
	return out, res.Supersteps, nil
}

// WeightedSSSP computes single-source shortest paths with edge labels as
// weights (message-pruned distributed Bellman–Ford, the standard TLAV SSSP).
// Unreachable vertices get -1. Validated against serial Dijkstra.
func WeightedSSSP(g *graph.Graph, source graph.V, cfg Config) ([]int64, *Result[int64], error) {
	const inf = int64(1) << 62
	prog := Program[int64, int64]{
		Init: func(g *graph.Graph, v graph.V) int64 {
			if v == source {
				return 0
			}
			return inf
		},
		Compute: func(ctx *Context[int64], v graph.V, state *int64, msgs []int64) {
			best := *state
			for _, m := range msgs {
				if m < best {
					best = m
				}
			}
			if best < *state || (ctx.Superstep() == 0 && v == source) {
				*state = best
				for i, u := range ctx.Graph().Neighbors(v) {
					ctx.Send(u, best+ctx.Graph().Weight(v, i))
				}
			}
			ctx.VoteToHalt()
		},
		Combine: func(a, b int64) int64 {
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
	out := make([]int64, len(res.States))
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
