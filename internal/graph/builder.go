package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable CSR Graph. It
// deduplicates parallel edges and drops self-loops. For undirected graphs an
// edge needs to be added only once (either direction).
type Builder struct {
	n        int
	directed bool
	us, vs   []V
	els      []int32
	vlabels  []int32
	labeled  bool
	elabeled bool
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 {
		//lint:allow panicpolicy negative vertex count is a programmer error at construction, documented precondition
		panic("graph: negative vertex count")
	}
	return &Builder{n: n, directed: directed}
}

// AddEdge adds the edge u→v (and v→u for undirected builders). Self-loops are
// silently dropped. Vertex ids must be in [0, n).
func (b *Builder) AddEdge(u, v V) { b.AddLabeledEdge(u, v, 0) }

// AddLabeledEdge adds an edge carrying an edge label.
func (b *Builder) AddLabeledEdge(u, v V, label int32) {
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		//lint:allow panicpolicy out-of-range vertex ids are a documented precondition; per-edge error returns would put a branch in every loader hot loop
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.els = append(b.els, label)
	if label != 0 {
		b.elabeled = true
	}
}

// SetLabel assigns a vertex label.
func (b *Builder) SetLabel(v V, label int32) {
	if b.vlabels == nil {
		b.vlabels = make([]int32, b.n)
	}
	for int(v) >= len(b.vlabels) {
		b.vlabels = append(b.vlabels, 0)
	}
	b.vlabels[v] = label
	b.labeled = true
}

// Build produces the immutable Graph. The Builder may not be reused after
// Build.
func (b *Builder) Build() *Graph {
	type arc struct {
		u, v V
		l    int32
	}
	arcs := make([]arc, 0, len(b.us)*2)
	for i := range b.us {
		arcs = append(arcs, arc{b.us[i], b.vs[i], b.els[i]})
		if !b.directed {
			arcs = append(arcs, arc{b.vs[i], b.us[i], b.els[i]})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].u != arcs[j].u {
			return arcs[i].u < arcs[j].u
		}
		return arcs[i].v < arcs[j].v
	})
	// Deduplicate.
	w := 0
	for i := range arcs {
		if i > 0 && arcs[i].u == arcs[w-1].u && arcs[i].v == arcs[w-1].v {
			continue
		}
		arcs[w] = arcs[i]
		w++
	}
	arcs = arcs[:w]

	g := &Graph{
		offsets:  make([]int64, b.n+1),
		adj:      make([]V, len(arcs)),
		directed: b.directed,
	}
	if b.elabeled {
		g.elabels = make([]int32, len(arcs))
	}
	for i, a := range arcs {
		g.offsets[a.u+1]++
		g.adj[i] = a.v
		if b.elabeled {
			g.elabels[i] = a.l
		}
	}
	for v := 1; v <= b.n; v++ {
		g.offsets[v] += g.offsets[v-1]
	}
	if b.labeled {
		g.vlabels = make([]int32, b.n)
		copy(g.vlabels, b.vlabels)
	}
	return g
}

// FromEdges builds an undirected graph with n vertices from an edge list.
func FromEdges(n int, edges [][2]V) *Graph {
	b := NewBuilder(n, false)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
