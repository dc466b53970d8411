// Package graph provides the core immutable graph representation shared by
// every engine in this repository: a compressed sparse row (CSR) adjacency
// structure with optional vertex and edge labels, plus builders, orderings,
// structural features and a transaction database for pattern mining.
//
// All engines (Pregel-style TLAV, think-like-a-task, BFS-extension mining,
// subgraph matching, FSM, GNN training) consume the same *Graph, so results
// across engines are directly comparable.
package graph

import (
	"fmt"
	"sort"
)

// V is the vertex identifier type. Vertices of a Graph with n vertices are
// identified by the dense range [0, n).
type V = int32

// Graph is an immutable graph in CSR form. For undirected graphs every edge
// {u,v} is stored twice (u→v and v→u). Neighbor lists are sorted ascending,
// enabling O(log d) adjacency tests and linear-time ordered merges.
//
// The zero value is an empty graph with no vertices.
type Graph struct {
	offsets  []int64 // len n+1; adj[offsets[v]:offsets[v+1]] are v's neighbors
	adj      []V     // concatenated sorted neighbor lists
	directed bool

	vlabels []int32 // optional, len n
	elabels []int32 // optional, aligned with adj
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of edges. For undirected graphs each edge
// {u,v} counts once.
func (g *Graph) NumEdges() int64 {
	if g.directed {
		return int64(len(g.adj))
	}
	return int64(len(g.adj)) / 2
}

// NumArcs returns the number of stored directed arcs (2|E| for undirected).
func (g *Graph) NumArcs() int64 { return int64(len(g.adj)) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v V) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v V) []V { return g.adj[g.offsets[v]:g.offsets[v+1]] }

// HasEdge reports whether the arc u→v exists, by binary search in O(log d(u)).
func (g *Graph) HasEdge(u, v V) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// HasLabels reports whether vertex labels are attached.
func (g *Graph) HasLabels() bool { return g.vlabels != nil }

// HasEdgeLabels reports whether edge labels are attached.
func (g *Graph) HasEdgeLabels() bool { return g.elabels != nil }

// Label returns the label of vertex v, or 0 if the graph is unlabeled.
func (g *Graph) Label(v V) int32 {
	if g.vlabels == nil {
		return 0
	}
	return g.vlabels[v]
}

// EdgeLabel returns the label of the arc u→v, or 0 if edges are unlabeled.
// It panics if the arc does not exist.
func (g *Graph) EdgeLabel(u, v V) int32 {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i >= len(ns) || ns[i] != v {
		//lint:allow panicpolicy documented in the method contract: querying a non-existent arc is a programmer error
		panic(fmt.Sprintf("graph: edge %d->%d does not exist", u, v))
	}
	if g.elabels == nil {
		return 0
	}
	return g.elabels[g.offsets[u]+int64(i)]
}

// EdgeLabelAt returns the label of the i-th stored arc of u (index into
// Neighbors(u)), or 0 if edges are unlabeled.
func (g *Graph) EdgeLabelAt(u V, i int) int32 {
	if g.elabels == nil {
		return 0
	}
	return g.elabels[g.offsets[u]+int64(i)]
}

// MaxLabel returns the largest vertex label, or 0 for unlabeled graphs.
func (g *Graph) MaxLabel() int32 {
	var m int32
	for _, l := range g.vlabels {
		if l > m {
			m = l
		}
	}
	return m
}

// Edges calls fn for every stored arc (u, v). For undirected graphs, to see
// each edge once use EdgesOnce.
func (g *Graph) Edges(fn func(u, v V)) {
	for u := V(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			fn(u, v)
		}
	}
}

// EdgesOnce calls fn once per undirected edge {u,v} with u < v. For directed
// graphs it is identical to Edges.
func (g *Graph) EdgesOnce(fn func(u, v V)) {
	if g.directed {
		g.Edges(fn)
		return
	}
	for u := V(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// MaxDegree returns the maximum degree over all vertices (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	m := 0
	for v := V(0); int(v) < g.NumVertices(); v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Intersect appends the intersection of two sorted vertex slices to dst.
// dst may be a[:0], or any slice of a's backing array that ends where a
// begins: each element is written at or before the index of a it was read
// from, so an in-place intersection never overwrites an unread element.
func Intersect(a, b, dst []V) []V {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// InducedSubgraph returns the subgraph induced by vs, together with the
// mapping from new vertex ids to original ids (i.e. newToOld[i] is the
// original id of new vertex i). Labels are carried over. Duplicate ids in vs
// are ignored.
func (g *Graph) InducedSubgraph(vs []V) (*Graph, []V) {
	newToOld := make([]V, 0, len(vs))
	oldToNew := make(map[V]V, len(vs))
	for _, v := range vs {
		if _, ok := oldToNew[v]; ok {
			continue
		}
		oldToNew[v] = V(len(newToOld))
		newToOld = append(newToOld, v)
	}
	b := NewBuilder(len(newToOld), g.directed)
	if g.vlabels != nil {
		for i, old := range newToOld {
			b.SetLabel(V(i), g.vlabels[old])
		}
	}
	for i, old := range newToOld {
		for k, w := range g.Neighbors(old) {
			nw, ok := oldToNew[w]
			if !ok {
				continue
			}
			if !g.directed && old > w {
				continue // add each undirected edge once
			}
			b.AddLabeledEdge(V(i), nw, g.EdgeLabelAt(old, k))
		}
	}
	return b.Build(), newToOld
}

// String returns a short diagnostic description.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph{%s, n=%d, m=%d}", kind, g.NumVertices(), g.NumEdges())
}
