// Package quegel implements the query-centric TLAV model of Quegel (Zhang,
// Yan, Cheng — SIGMOD'16 / PVLDB'16), another system of the paper's
// presenters referenced in §7: many light vertex-centric QUERIES (here:
// point-to-point shortest paths) execute against one loaded big graph, and
// instead of paying a full superstep barrier sequence per query, concurrent
// queries are batched so every superstep serves all in-flight queries at
// once — superstep-sharing, the system's core idea.
package quegel

import (
	"graphsys/internal/det"
	"graphsys/internal/graph"
	"graphsys/internal/obs"
	"graphsys/internal/pregel"
)

// Query asks for the hop distance from Src to Dst.
type Query struct {
	Src, Dst graph.V
}

// Answer is the hop distance (-1 if unreachable).
type Answer struct {
	Dist int32
}

// Stats reports the execution cost of serving a query set.
type Stats struct {
	Supersteps int   // total barrier rounds paid
	Messages   int64 // total messages
	// Trace is the shared run's observability trace (batched execution with
	// pregel.Config.Trace set; nil for sequential serving, which pays one
	// engine run per query).
	Trace *obs.Trace
}

type qmsg struct {
	qid  int32
	dist int32
}

// AnswerBatched serves all queries in ONE vertex-centric run: per-vertex
// state holds one distance per in-flight query, messages are tagged with the
// query id, and every superstep advances all BFS frontiers together. The
// barrier count is max(per-query rounds), not the sum — Quegel's
// superstep-sharing.
//
// Messages are combined sender-side per (destination vertex, query id) by
// the substrate's hoisted combiner: when several neighbors on one worker
// reach the same vertex for the same query in one superstep, only the
// minimum distance crosses the network. CombineKey keeps distinct queries'
// frontiers apart — min-combining across query ids would corrupt answers.
func AnswerBatched(g *graph.Graph, queries []Query, cfg pregel.Config) ([]Answer, Stats, error) {
	prog := pregel.Program[map[int32]int32, qmsg]{
		Combine: func(a, b qmsg) qmsg {
			if b.dist < a.dist {
				return b
			}
			return a
		},
		CombineKey: func(m qmsg) int32 { return m.qid },
		Init: func(g *graph.Graph, v graph.V) map[int32]int32 {
			st := map[int32]int32{}
			for qi, q := range queries {
				if q.Src == v {
					st[int32(qi)] = 0
				}
			}
			return st
		},
		Compute: func(ctx *pregel.Context[qmsg], v graph.V, state *map[int32]int32, msgs []qmsg) {
			if ctx.Superstep() == 0 {
				// sorted query ids: message emission order must not inherit
				// Go's randomised map order (graphlint maprange)
				for _, qid := range det.SortedKeys(*state) {
					for _, u := range ctx.Graph().Neighbors(v) {
						ctx.Send(u, qmsg{qid, (*state)[qid] + 1})
					}
				}
				ctx.VoteToHalt()
				return
			}
			improved := map[int32]int32{}
			for _, m := range msgs {
				if cur, ok := (*state)[m.qid]; !ok || m.dist < cur {
					(*state)[m.qid] = m.dist
					if best, seen := improved[m.qid]; !seen || m.dist < best {
						improved[m.qid] = m.dist
					}
				}
			}
			for _, qid := range det.SortedKeys(improved) {
				for _, u := range ctx.Graph().Neighbors(v) {
					ctx.Send(u, qmsg{qid, improved[qid] + 1})
				}
			}
			ctx.VoteToHalt()
		},
	}
	res, err := pregel.Run(g, prog, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]Answer, len(queries))
	for qi, q := range queries {
		if d, ok := res.States[q.Dst][int32(qi)]; ok {
			out[qi] = Answer{Dist: d}
		} else {
			out[qi] = Answer{Dist: -1}
		}
	}
	if res.Trace != nil {
		res.Trace.Workload = "quegel/batched"
	}
	return out, Stats{Supersteps: res.Supersteps, Messages: res.Net.Messages + res.Net.LocalMessages, Trace: res.Trace}, nil
}

// AnswerSequential serves queries one at a time, each paying its own full
// sequence of supersteps (the offline-TLAV baseline Quegel improves on).
func AnswerSequential(g *graph.Graph, queries []Query, cfg pregel.Config) ([]Answer, Stats, error) {
	var st Stats
	out := make([]Answer, len(queries))
	for qi, q := range queries {
		dists, res, err := pregel.SSSP(g, q.Src, cfg)
		if err != nil {
			return nil, Stats{}, err
		}
		out[qi] = Answer{Dist: dists[q.Dst]}
		st.Supersteps += res.Supersteps
		st.Messages += res.Net.Messages + res.Net.LocalMessages
	}
	return out, st, nil
}
