package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable CSR Graph. It
// deduplicates parallel edges and drops self-loops. For undirected graphs an
// edge needs to be added only once (either direction).
type Builder struct {
	n        int
	directed bool
	us, vs   []V
	els      []int32 // nil until the first non-zero edge label
	vlabels  []int32
	labeled  bool
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
	if label != 0 && b.els == nil {
		b.els = make([]int32, len(b.us), cap(b.us))
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if b.els != nil {
		b.els = append(b.els, label)
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

// Build produces the immutable Graph: every row sorted ascending, parallel
// arcs merged. It is a counting sort by source, then a sort of each row. Of
// parallel arcs the first inserted keeps its label, in both directions of
// an undirected edge. The Builder may not be reused after Build.
func (b *Builder) Build() *Graph {
	g := &Graph{directed: b.directed}
	g.offsets, g.adj = b.csr()
	if b.els != nil {
		g.elabels = make([]int32, len(g.adj))
		label := func(u, v V, l int32) {
			i, _ := slices.BinarySearch(g.Neighbors(u), v)
			g.elabels[g.offsets[u]+int64(i)] = l
		}
		for i := len(b.us) - 1; i >= 0; i-- { // backwards: the first inserted is written last
			label(b.us[i], b.vs[i], b.els[i])
			if !b.directed {
				label(b.vs[i], b.us[i], b.els[i])
			}
		}
	}
	if b.labeled {
		g.vlabels = make([]int32, b.n)
		copy(g.vlabels, b.vlabels)
	}
	return g
}

func (b *Builder) csr() ([]int64, []V) {
	offsets := make([]int64, b.n+1)
	for i, u := range b.us {
		offsets[u+1]++
		if !b.directed {
			offsets[b.vs[i]+1]++
		}
	}
	for v := 1; v <= b.n; v++ {
		offsets[v] += offsets[v-1]
	}
	// scatter: offsets[u] walks from row u's start to the next row's
	adj := make([]V, offsets[b.n])
	for i, u := range b.us {
		v := b.vs[i]
		adj[offsets[u]] = v
		offsets[u]++
		if !b.directed {
			adj[offsets[v]] = u
			offsets[v]++
		}
	}
	var start, w int64
	for v := 0; v < b.n; v++ {
		row := adj[start:offsets[v]]
		start, offsets[v] = offsets[v], w
		slices.Sort(row)
		w += int64(copy(adj[w:], slices.Compact(row)))
	}
	offsets[b.n] = w
	if w < int64(len(adj)) { // an exact-size copy frees the dropped arcs
		adj = append(make([]V, 0, w), adj[:w]...)
	}
	return offsets, adj
}

// FromEdges builds an undirected graph with n vertices from an edge list.
func FromEdges(n int, edges [][2]V) *Graph {
	b := NewBuilder(n, false)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
