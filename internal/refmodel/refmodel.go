// Package refmodel holds executable specifications of graph construction
// and of the analytics engines: single-threaded, plain implementations of
// what they compute, sharing no code with them. Engine tests check their
// results against these functions, so no production path is its own oracle.
// The package imports only internal/graph, so any engine package's own tests
// can import it without a cycle.
package refmodel

import (
	"sort"

	"graphsys/internal/graph"
)

// CSR is the specification of graph.Builder.Build's adjacency and edge
// labels: the set of arcs u→v over the edges, plus v→u for each when
// undirected, without self-loops, ordered by source and then by target, in
// CSR form. labels holds each edge's label; an arc's label is that of the
// first edge that gives the arc.
func CSR(n int, edges [][2]graph.V, labels []int32, directed bool) (offsets []int64, adj []graph.V, elabels []int32) {
	label := make(map[[2]graph.V]int32)
	add := func(a [2]graph.V, l int32) {
		if _, seen := label[a]; !seen {
			label[a] = l
		}
	}
	for i, e := range edges {
		if e[0] == e[1] {
			continue
		}
		add(e, labels[i])
		if !directed {
			add([2]graph.V{e[1], e[0]}, labels[i])
		}
	}
	arcs := make([][2]graph.V, 0, len(label))
	for a := range label {
		arcs = append(arcs, a)
	}
	sort.Slice(arcs, func(i, j int) bool {
		return arcs[i][0] < arcs[j][0] || arcs[i][0] == arcs[j][0] && arcs[i][1] < arcs[j][1]
	})
	offsets = make([]int64, n+1)
	for _, a := range arcs {
		offsets[a[0]+1]++
		adj = append(adj, a[1])
		elabels = append(elabels, label[a])
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	return offsets, adj, elabels
}

// CC labels every vertex with the smallest vertex id of its connected
// component, by union-find over every arc (arcs are taken as undirected).
// Each root is the smallest id of its set: a union always hangs the larger
// root under the smaller.
func CC(g *graph.Graph) []int32 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.V(u)) {
			ru, rv := find(int32(u)), find(int32(v))
			if ru < rv {
				parent[rv] = ru
			} else if rv < ru {
				parent[ru] = rv
			}
		}
	}
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = find(int32(v))
	}
	return labels
}

// ScanCC is GraphD's semi-external sweep: labels start at the vertex ids,
// and each pass visits u in ascending order and lowers labels[v] to
// labels[u] in place for every arc (u, v). Passes repeat until one changes
// nothing. It returns the labels and the number of passes, the last
// (unchanged) one included. The labels equal CC's on undirected graphs; the
// pass count is the sweep's own contract.
func ScanCC(g *graph.Graph) ([]int32, int) {
	n := g.NumVertices()
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v)
	}
	for passes := 1; ; passes++ {
		changed := false
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(graph.V(u)) {
				if labels[u] < labels[v] {
					labels[v] = labels[u]
					changed = true
				}
			}
		}
		if !changed {
			return labels, passes
		}
	}
}

// ScanPageRank runs iters damped (d = 0.85) PageRank iterations from the
// uniform vector 1/n. Each iteration visits u in ascending order and adds
// rank[u]/deg(u) to every neighbour in g.Neighbors order, then sets each
// rank to (1-d)/n + d·sum. A vertex without arcs passes nothing on, so its
// mass leaks, as in the engines. The summation order is part of the spec:
// an engine that sums in this order matches it bit for bit.
func ScanPageRank(g *graph.Graph, iters int) []float64 {
	const d = 0.85
	n := g.NumVertices()
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		sum := make([]float64, n)
		for u := 0; u < n; u++ {
			adj := g.Neighbors(graph.V(u))
			if len(adj) == 0 {
				continue
			}
			share := ranks[u] / float64(len(adj))
			for _, v := range adj {
				sum[v] += share
			}
		}
		for v := range sum {
			sum[v] = (1-d)/float64(n) + d*sum[v]
		}
		ranks = sum
	}
	return ranks
}

// BFS returns the hop distance from source to every vertex, or -1 where no
// path exists, by a plain queue breadth-first search.
func BFS(g *graph.Graph, source graph.V) []int32 {
	level := make([]int32, g.NumVertices())
	for v := range level {
		level[v] = -1
	}
	level[source] = 0
	queue := []graph.V{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

// Dijkstra returns the weighted distance from source to every vertex, or -1
// where no path exists. An arc weighs its edge label, and a label of 0 or
// less weighs 1, so an unlabeled graph is unit-weight. Each step settles the
// unsettled vertex of least distance by a linear scan.
func Dijkstra(g *graph.Graph, source graph.V) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[source] = 0
	settled := make([]bool, n)
	for {
		u := -1
		for v := range dist {
			if !settled[v] && dist[v] >= 0 && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		settled[u] = true
		for i, v := range g.Neighbors(graph.V(u)) {
			w := int64(g.EdgeLabelAt(graph.V(u), i))
			if w <= 0 {
				w = 1
			}
			if d := dist[u] + w; dist[v] < 0 || d < dist[v] {
				dist[v] = d
			}
		}
	}
}
