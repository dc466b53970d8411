package pregel

import "graphsys/internal/graph"

// This file is the specification the engine is checked against: a serial
// bulk-synchronous interpreter over plain slices. It shares no code with Run,
// cluster.Mailboxes or the delivery scatter. The order it defines:
//   - a superstep runs the workers in ascending rank, and each worker runs
//     its owned vertices in ascending id;
//   - each sender combines its messages per (destination vertex, key) in send
//     order, as combine(queued, incoming), and a class keeps the position of
//     its first message;
//   - a vertex's inbox is the senders' runs in ascending sender rank.
//
// It counts a delivered message as local when sender and receiver are the
// same worker and as remote otherwise.

// vertexAPI is the part of *Context a spec program may use. The engine hands
// it its Context, the reference its own refCtx.
type vertexAPI[M any] interface {
	Superstep() int
	Degree(v graph.V) int
	SendToNeighbors(v graph.V, m M)
	VoteToHalt()
}

// spec is a vertex program written once, for the engine and the reference.
type spec[S, M any] struct {
	init    func(v graph.V) S
	compute func(ctx vertexAPI[M], v graph.V, state *S, msgs []M)
	combine func(a, b M) M  // nil: no combiner
	key     func(m M) int32 // nil: combine per destination vertex
	keys    int             // number of key classes per vertex
}

// program is p as an engine Program.
func (p spec[S, M]) program() Program[S, M] {
	return Program[S, M]{
		Init: func(_ *graph.Graph, v graph.V) S { return p.init(v) },
		Compute: func(ctx *Context[M], v graph.V, state *S, msgs []M) {
			p.compute(ctx, v, state, msgs)
		},
		Combine:     p.combine,
		CombineKey:  p.key,
		CombineKeys: p.keys,
	}
}

// refResult is what the reference computes: final states, the number of
// supersteps that ran compute, and delivered message counts.
type refResult[S any] struct {
	states        []S
	supersteps    int
	remote, local int64
}

type refClass struct {
	to  graph.V
	key int32
}

type refMsg[M any] struct {
	to graph.V
	m  M
}

// refCtx is one sender's view of a superstep.
type refCtx[M any] struct {
	g       *graph.Graph
	step    int
	halted  bool
	combine func(a, b M) M
	key     func(m M) int32
	run     []refMsg[M]      // this sender's messages, combined, in first-send order
	at      map[refClass]int // combining class → index in run
}

func (c *refCtx[M]) Superstep() int       { return c.step }
func (c *refCtx[M]) Degree(v graph.V) int { return c.g.Degree(v) }
func (c *refCtx[M]) VoteToHalt()          { c.halted = true }

func (c *refCtx[M]) SendToNeighbors(v graph.V, m M) {
	for _, to := range c.g.Neighbors(v) {
		c.send(to, m)
	}
}

func (c *refCtx[M]) send(to graph.V, m M) {
	if c.combine != nil {
		class := refClass{to: to}
		if c.key != nil {
			class.key = c.key(m)
		}
		if i, ok := c.at[class]; ok {
			c.run[i].m = c.combine(c.run[i].m, m)
			return
		}
		c.at[class] = len(c.run)
	}
	c.run = append(c.run, refMsg[M]{to: to, m: m})
}

// refRun interprets p on g with vertex v owned by worker part[v], for at
// most maxSteps supersteps.
func refRun[S, M any](g *graph.Graph, p spec[S, M], part []int, workers, maxSteps int) refResult[S] {
	n := g.NumVertices()
	res := refResult[S]{states: make([]S, n)}
	active := make([]bool, n)
	inbox := make([][]M, n)
	for v := 0; v < n; v++ {
		res.states[v] = p.init(graph.V(v))
		active[v] = true
	}
	runs := make([][]refMsg[M], workers)
	for step := 0; step < maxSteps; step++ {
		live := false
		for _, a := range active {
			live = live || a
		}
		if !live {
			break
		}
		res.supersteps++
		for w := 0; w < workers; w++ {
			ctx := &refCtx[M]{g: g, step: step, combine: p.combine, key: p.key, at: map[refClass]int{}}
			for v := 0; v < n; v++ {
				if part[v] != w || !active[v] {
					continue
				}
				ctx.halted = false
				p.compute(ctx, graph.V(v), &res.states[v], inbox[v])
				if ctx.halted {
					active[v] = false
				}
			}
			runs[w] = ctx.run
		}
		inbox = make([][]M, n)
		for w, run := range runs {
			for _, msg := range run {
				if part[msg.to] == w {
					res.local++
				} else {
					res.remote++
				}
				inbox[msg.to] = append(inbox[msg.to], msg.m)
				active[msg.to] = true
			}
		}
	}
	return res
}
