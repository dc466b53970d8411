package graph

import "sort"

// CoreNumbers computes the k-core number of every vertex using the
// linear-time bucket peeling algorithm of Batagelj–Zaversnik. The core number
// of v is the largest k such that v belongs to a subgraph where every vertex
// has degree ≥ k.
func CoreNumbers(g *Graph) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	md := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(V(v)))
		if deg[v] > md {
			md = deg[v]
		}
	}
	// bucket sort vertices by degree
	bin := make([]int32, md+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= md; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int32, n)  // position of v in vert
	vert := make([]int32, n) // vertices sorted by current degree
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := md; d >= 1; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := deg
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range g.Neighbors(v) {
			if core[u] > core[v] {
				// move u one bucket down
				du, pu := core[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}

// DegeneracyOrder returns a vertex ordering v₁..vₙ such that each vertex has
// the minimum remaining degree when removed (the degeneracy ordering), along
// with the graph degeneracy (max core number). Processing cliques in this
// order bounds the search tree; it is the standard preprocessing step of
// Bron–Kerbosch-with-pivoting used by G-thinker-style systems.
func DegeneracyOrder(g *Graph) (order []V, degeneracy int) {
	core := CoreNumbers(g)
	n := g.NumVertices()
	order = make([]V, n)
	for i := range order {
		order[i] = V(i)
	}
	// Peeling order: sort by core number then degree as tie break gives a
	// valid degeneracy order for our purposes (monotone peeling).
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if core[a] != core[b] {
			return core[a] < core[b]
		}
		return a < b
	})
	for _, c := range core {
		if int(c) > degeneracy {
			degeneracy = int(c)
		}
	}
	return order, degeneracy
}

// TriangleCount counts triangles with the standard serial ordered-merge
// algorithm: orient each edge from lower-degree to higher-degree endpoint and
// intersect out-neighborhoods. This is the efficient external-memory-style
// serial baseline referenced by Chu & Cheng in the paper's introduction.
func TriangleCount(g *Graph) int64 {
	n := g.NumVertices()
	rank := make([]int32, n)
	idx := make([]V, n)
	for i := range idx {
		idx[i] = V(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		di, dj := g.Degree(idx[i]), g.Degree(idx[j])
		if di != dj {
			return di < dj
		}
		return idx[i] < idx[j]
	})
	for r, v := range idx {
		rank[v] = int32(r)
	}
	// Build oriented adjacency: u → v iff rank[u] < rank[v].
	out := make([][]V, n)
	for u := V(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if rank[u] < rank[v] {
				out[u] = append(out[u], v)
			}
		}
		sort.Slice(out[u], func(i, j int) bool { return out[u][i] < out[u][j] })
	}
	var count int64
	for u := V(0); int(u) < n; u++ {
		for _, v := range out[u] {
			count += int64(intersectCount(out[u], out[v]))
		}
	}
	return count
}

func intersectCount(a, b []V) int {
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// LocalTriangles returns per-vertex triangle counts (each triangle counted at
// all three corners).
func LocalTriangles(g *Graph) []int64 {
	n := g.NumVertices()
	tri := make([]int64, n)
	for u := V(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			g.forEachCommonNeighbor(u, v, func(w V) {
				if w > v { // u < v < w: count each triangle once, credit all corners
					tri[u]++
					tri[v]++
					tri[w]++
				}
			})
		}
	}
	return tri
}

func (g *Graph) forEachCommonNeighbor(u, v V, fn func(w V)) {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// ConnectedComponents labels each vertex with a component id in [0, #comps)
// using iterative BFS, and returns the labels and the component count.
// This is the serial reference implementation used to validate the Pregel
// HashMin algorithm.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []V
	for s := V(0); int(s) < n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := int32(count)
		count++
		labels[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return labels, count
}
