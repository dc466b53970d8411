// Package quegel implements the query-centric TLAV model of Quegel (Zhang,
// Yan, Cheng — SIGMOD'16 / PVLDB'16), another system of the paper's
// presenters referenced in §7: many light vertex-centric QUERIES (here:
// point-to-point shortest paths) execute against one loaded big graph, and
// instead of paying a full superstep barrier sequence per query, concurrent
// queries are batched so every superstep serves all in-flight queries at
// once — superstep-sharing, the system's core idea.
//
// A batched run keeps one uint64 seen mask per vertex, bit q set once query
// q's frontier has reached it, so the state is a value and a checkpoint's
// copy of it is deep. The BFS is level-synchronous: every message delivered
// in superstep s carries distance s, so a query's first arrival at a vertex
// is its distance, and combining two messages of one (vertex, query) class
// only removes a duplicate. The mask bounds a run at 64 queries; longer
// lists run as consecutive runs of at most 64.
package quegel

import (
	"math/bits"

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
	// Trace is the first shared run's observability trace (batched execution
	// with pregel.Config.Trace set; nil for sequential serving, which pays
	// one engine run per query).
	Trace *obs.Trace
}

// runQueries is the most queries one engine run serves: one bit each of a
// vertex's seen mask.
const runQueries = 64

// AnswerBatched serves the queries in shared vertex-centric runs of at most
// 64 queries each: every superstep advances all of a run's BFS frontiers
// together, so a run's barrier count is max(per-query rounds), not the sum —
// Quegel's superstep-sharing. Stats sums the runs' supersteps and messages;
// its Trace is the first run's. An empty list pays no run.
func AnswerBatched(g *graph.Graph, queries []Query, cfg pregel.Config) ([]Answer, Stats, error) {
	out := make([]Answer, len(queries))
	var st Stats
	for lo := 0; lo < len(queries); lo += runQueries {
		hi := min(lo+runQueries, len(queries))
		res, err := answerRun(g, queries[lo:hi], out[lo:hi], cfg)
		if err != nil {
			return nil, Stats{}, err
		}
		st.Supersteps += res.Supersteps
		st.Messages += res.Net.Messages + res.Net.LocalMessages
		if st.Trace == nil && res.Trace != nil {
			res.Trace.Workload = "quegel/batched"
			st.Trace = res.Trace
		}
	}
	return out, st, nil
}

// answerRun serves at most 64 queries in one run and writes their answers to
// out. A vertex's state is its seen mask; a message is a query id alone (it
// carries dist s in superstep s), combined sender-side per (destination
// vertex, query id) through the engine's dense slot table, so one message
// per class crosses the network. out[q] is written only by the owner of
// queries[q].Dst, at the query's first arrival there; a replay after a
// rollback or restart rewrites the same value.
func answerRun(g *graph.Graph, queries []Query, out []Answer, cfg pregel.Config) (*pregel.Result[uint64], error) {
	for q := range out {
		out[q].Dist = -1
	}
	prog := pregel.Program[uint64, int32]{
		// both messages carry the same dist: combining only drops duplicates
		Combine:     func(a, _ int32) int32 { return a },
		CombineKey:  func(q int32) int32 { return q },
		CombineKeys: len(queries),
		Init: func(_ *graph.Graph, v graph.V) uint64 {
			var seen uint64
			for q, qu := range queries {
				if qu.Src == v {
					seen |= 1 << q
				}
			}
			return seen
		},
		Compute: func(ctx *pregel.Context[int32], v graph.V, seen *uint64, msgs []int32) {
			fresh := *seen // superstep 0: the queries starting here
			if ctx.Superstep() > 0 {
				fresh = 0
				for _, q := range msgs {
					fresh |= 1 << q
				}
				fresh &^= *seen
				*seen |= fresh
			}
			// ascending query id, each to every neighbor: the send order
			var ns []graph.V
			if fresh != 0 {
				ns = ctx.Neighbors(v) // through the engine's source on out-of-core runs
			}
			for ; fresh != 0; fresh &= fresh - 1 {
				q := int32(bits.TrailingZeros64(fresh))
				if queries[q].Dst == v {
					out[q].Dist = int32(ctx.Superstep())
				}
				for _, u := range ns {
					ctx.Send(u, q)
				}
			}
			ctx.VoteToHalt()
		},
	}
	return pregel.Run(g, prog, cfg)
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
