// Package fsm implements frequent subgraph pattern mining, the Table-1 row
// the paper singles out as requiring pattern summarisation rather than
// instance finding. Two system families are covered:
//
//   - Transactional FSM (gSpan / PrefixFPM): patterns are grown depth-first
//     via canonical DFS codes with rightmost-path extension and prefix
//     projection; support is the number of transactions containing the
//     pattern. MineTransactions parallelises the root-pattern subtrees the
//     way PrefixFPM parallelises prefix-projected databases.
//
//   - Single-graph FSM (GraMi / ScaleMine / T-FSM): support is the
//     minimum-non-identical-image (MNI) measure, which is anti-monotone;
//     support evaluation of each candidate pattern is an independent
//     subgraph-matching task executed in parallel, T-FSM's core design.
package fsm

import (
	"fmt"
	"strings"

	"graphsys/internal/graph"
)

// EdgeCode is one gSpan DFS-code tuple (i, j, lᵢ, lᵢⱼ, lⱼ): an edge between
// discovery indices i and j. Forward edges have i < j (j is a new vertex),
// backward edges i > j.
type EdgeCode struct {
	From, To          int
	FromL, EdgeL, ToL int32
}

// Forward reports whether the tuple introduces a new vertex.
func (e EdgeCode) Forward() bool { return e.From < e.To }

// Less is gSpan's DFS lexicographic order on edge tuples.
func (e EdgeCode) Less(o EdgeCode) bool {
	ef, of := e.Forward(), o.Forward()
	switch {
	case ef && of:
		if e.To != o.To {
			return e.To < o.To
		}
		if e.From != o.From {
			return e.From > o.From // deeper anchor first
		}
	case !ef && !of:
		if e.From != o.From {
			return e.From < o.From
		}
		if e.To != o.To {
			return e.To < o.To
		}
	case ef && !of: // e forward, o backward
		return o.From >= e.To
	case !ef && of: // e backward, o forward
		return e.From < o.To
	}
	// same (i, j): label order
	if e.FromL != o.FromL {
		return e.FromL < o.FromL
	}
	if e.EdgeL != o.EdgeL {
		return e.EdgeL < o.EdgeL
	}
	return e.ToL < o.ToL
}

func (e EdgeCode) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%d)", e.From, e.To, e.FromL, e.EdgeL, e.ToL)
}

// DFSCode is a pattern encoded as a tuple sequence.
type DFSCode []EdgeCode

func (c DFSCode) String() string {
	parts := make([]string, len(c))
	for i, e := range c {
		parts[i] = e.String()
	}
	return strings.Join(parts, "")
}

// NumVertices returns the number of pattern vertices the code describes.
func (c DFSCode) NumVertices() int {
	max := -1
	for _, e := range c {
		if e.From > max {
			max = e.From
		}
		if e.To > max {
			max = e.To
		}
	}
	return max + 1
}

// Graph materialises the pattern graph (vertex ids = discovery indices).
func (c DFSCode) Graph() *graph.Graph {
	n := c.NumVertices()
	b := graph.NewBuilder(n, false)
	for _, e := range c {
		b.SetLabel(graph.V(e.From), e.FromL)
		b.SetLabel(graph.V(e.To), e.ToL)
		b.AddLabeledEdge(graph.V(e.From), graph.V(e.To), e.EdgeL)
	}
	return b.Build()
}

// RightmostPath returns the dfs indices on the rightmost path, from the
// rightmost vertex back to the root (index 0).
func (c DFSCode) RightmostPath() []int {
	if len(c) == 0 {
		return nil
	}
	// rightmost vertex: target of the last forward edge
	var path []int
	cur := -1
	for i := len(c) - 1; i >= 0; i-- {
		if c[i].Forward() && (cur == -1 || c[i].To == cur) {
			path = append(path, c[i].To)
			cur = c[i].From
		}
	}
	path = append(path, 0)
	return path
}

// IsMin reports whether c is its pattern's minimum DFS code (gSpan's
// canonicality test). It rebuilds the minimum code of c.Graph() one tuple
// per step, keeping only the projections of the least tuple, and compares
// each tuple with c's.
func (c DFSCode) IsMin() bool {
	if len(c) == 0 {
		return true
	}
	graphs := []*graph.Graph{c.Graph()}
	var least *EdgeCode
	var projs []*embedding
	// The least root tuple has FromL ≤ ToL, so eachRoot's filter keeps its
	// whole group, in the order of an unfiltered scan.
	eachRoot(graphs, func(t EdgeCode, _ int, u, v graph.V) {
		if least == nil || t.Less(*least) {
			least, projs = &t, projs[:0]
		}
		if t == *least {
			projs = append(projs, rootEmbedding(0, u, v))
		}
	})
	for step := 0; least != nil && *least == c[step]; step++ {
		if step+1 == len(c) {
			return true
		}
		var next []*embedding
		least = nil
		eachExtension(graphs, c[:step+1], projs, func(t EdgeCode, e *embedding, newV graph.V) {
			if least == nil || t.Less(*least) {
				least, next = &t, next[:0]
			}
			if t == *least {
				next = append(next, e.extend(t, newV))
			}
		})
		projs = next
	}
	return false
}

// embedding is a projection of a DFS code into graph gid: the graph vertex
// at each discovery index, and the edges the code has used.
type embedding struct {
	gid      int
	vertices []graph.V
	edges    map[int64]bool
}

func rootEmbedding(gid int, u, v graph.V) *embedding {
	return &embedding{gid: gid, vertices: []graph.V{u, v}, edges: map[int64]bool{ekey(u, v): true}}
}

// extend returns a copy of e grown by tuple t, where newV is the vertex a
// forward tuple adds.
func (e *embedding) extend(t EdgeCode, newV graph.V) *embedding {
	c := &embedding{gid: e.gid, vertices: append(make([]graph.V, 0, len(e.vertices)+1), e.vertices...),
		edges: make(map[int64]bool, len(e.edges)+1)}
	for k := range e.edges {
		c.edges[k] = true
	}
	if t.Forward() {
		c.vertices = append(c.vertices, newV)
	}
	c.edges[ekey(c.vertices[t.From], c.vertices[t.To])] = true
	return c
}

func (e *embedding) contains(v graph.V) bool {
	for _, x := range e.vertices {
		if x == v {
			return true
		}
	}
	return false
}

func ekey(u, v graph.V) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// eachRoot visits every arc u→v of every graph whose root tuple
// (0, 1, l(u), l(u,v), l(v)) has FromL ≤ ToL, graph by graph in CSR order.
func eachRoot(graphs []*graph.Graph, visit func(t EdgeCode, gid int, u, v graph.V)) {
	for gid, g := range graphs {
		for u := graph.V(0); int(u) < g.NumVertices(); u++ {
			for i, v := range g.Neighbors(u) {
				t := EdgeCode{0, 1, g.Label(u), g.EdgeLabelAt(u, i), g.Label(v)}
				if t.FromL <= t.ToL { // else the reversed arc yields the smaller code
					visit(t, gid, u, v)
				}
			}
		}
	}
}

// eachExtension visits every rightmost-path extension of code in each of
// its projections, in gSpan's order: backward tuples from the rightmost
// vertex to the rightmost path, then forward tuples from each rightmost-path
// vertex to a vertex the projection does not use. newV is the vertex a
// forward tuple adds.
func eachExtension(graphs []*graph.Graph, code DFSCode, projs []*embedding, visit func(t EdgeCode, e *embedding, newV graph.V)) {
	rmpath := code.RightmostPath()
	maxIdx := code.NumVertices() - 1
	for _, e := range projs {
		g := graphs[e.gid]
		rmv := e.vertices[rmpath[0]]
		for _, j := range rmpath[1:] {
			tv := e.vertices[j]
			if g.HasEdge(rmv, tv) && !e.edges[ekey(rmv, tv)] {
				visit(EdgeCode{rmpath[0], j, g.Label(rmv), g.EdgeLabel(rmv, tv), g.Label(tv)}, e, -1)
			}
		}
		for _, i := range rmpath {
			fv := e.vertices[i]
			for k, u := range g.Neighbors(fv) {
				if !e.contains(u) {
					visit(EdgeCode{i, maxIdx + 1, g.Label(fv), g.EdgeLabelAt(fv, k), g.Label(u)}, e, u)
				}
			}
		}
	}
}
