package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(V(i), V(i+1))
	}
	return b.Build()
}

func completeGraph(n int) *Graph {
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(V(u), V(v))
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, false).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("empty graph max degree = %d", g.MaxDegree())
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop, dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 edge, got %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge must be visible from both endpoints")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop must be dropped")
	}
}

func TestDirectedBuilder(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if !g.Directed() {
		t.Fatal("expected directed")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("want 2 arcs, got %d", g.NumEdges())
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph must not contain reverse arc")
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(50, false)
	for i := 0; i < 300; i++ {
		b.AddEdge(V(rng.Intn(50)), V(rng.Intn(50)))
	}
	g := b.Build()
	for v := V(0); int(v) < g.NumVertices(); v++ {
		ns := g.Neighbors(v)
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatalf("neighbors of %d not sorted: %v", v, ns)
		}
		for i := 1; i < len(ns); i++ {
			if ns[i] == ns[i-1] {
				t.Fatalf("duplicate neighbor %d of %d", ns[i], v)
			}
		}
	}
}

func TestHasEdgeMatchesNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewBuilder(40, false)
	edges := make(map[[2]V]bool)
	for i := 0; i < 200; i++ {
		u, v := V(rng.Intn(40)), V(rng.Intn(40))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if u > v {
			u, v = v, u
		}
		edges[[2]V{u, v}] = true
	}
	g := b.Build()
	for u := V(0); u < 40; u++ {
		for v := V(0); v < 40; v++ {
			a, bb := u, v
			if a > bb {
				a, bb = bb, a
			}
			want := a != bb && edges[[2]V{a, bb}]
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d)=%v want %v", u, v, got, want)
			}
		}
	}
}

func TestDegreeSum(t *testing.T) {
	g := completeGraph(10)
	var sum int64
	for v := V(0); v < 10; v++ {
		sum += int64(g.Degree(v))
	}
	if sum != 2*g.NumEdges() {
		t.Fatalf("handshake lemma violated: sum=%d 2m=%d", sum, 2*g.NumEdges())
	}
	if g.NumEdges() != 45 {
		t.Fatalf("K10 edges = %d", g.NumEdges())
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder(3, false)
	b.SetLabel(0, 7)
	b.SetLabel(2, 9)
	b.AddLabeledEdge(0, 1, 5)
	g := b.Build()
	if !g.HasLabels() {
		t.Fatal("labels expected")
	}
	if g.Label(0) != 7 || g.Label(1) != 0 || g.Label(2) != 9 {
		t.Fatalf("labels: %d %d %d", g.Label(0), g.Label(1), g.Label(2))
	}
	if g.EdgeLabel(0, 1) != 5 || g.EdgeLabel(1, 0) != 5 {
		t.Fatal("edge label must be symmetric for undirected edges")
	}
	if g.MaxLabel() != 9 {
		t.Fatalf("max label = %d", g.MaxLabel())
	}
}

func TestEdgeLabelPanicsOnMissingEdge(t *testing.T) {
	g := pathGraph(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing edge")
		}
	}()
	g.EdgeLabel(0, 2)
}

func TestIntersectProperty(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		toSet := func(raw []uint8) []V {
			m := map[V]bool{}
			for _, x := range raw {
				m[V(x)] = true
			}
			out := make([]V, 0, len(m))
			for v := range m {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := toSet(aRaw), toSet(bRaw)
		got := Intersect(a, b, nil)
		want := map[V]bool{}
		for _, x := range a {
			for _, y := range b {
				if x == y {
					want[x] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, x := range got {
			if !want[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectInPlace checks Intersect's aliasing contract: writing into
// a[:0], or into the slice of a's backing array just before a, gives what a
// fresh buffer gives.
func TestIntersectInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sortedSet := func(n, max int) []V {
		out := make([]V, 0, n)
		for _, x := range rng.Perm(max)[:n] {
			out = append(out, V(x))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	cases := [][2][]V{
		{nil, {1, 2}},
		{{1, 2, 3}, {1, 2, 3}},
		{{1, 3, 5}, {2, 4, 6}},
		{{0, 4, 9}, {9}},
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, [2][]V{sortedSet(rng.Intn(40), 64), sortedSet(rng.Intn(40), 64)})
	}
	for _, c := range cases {
		a, b := c[0], c[1]
		want := Intersect(a, b, nil)
		own := append([]V(nil), a...)
		if got := Intersect(own, b, own[:0]); !slices.Equal(got, want) {
			t.Fatalf("Intersect(%v, %v, a[:0]) = %v, want %v", a, b, got, want)
		}
		const base = 3
		buf := append(make([]V, base), a...)
		if got := Intersect(buf[base:], b, buf[:base]); !slices.Equal(got[base:], want) {
			t.Fatalf("Intersect(%v, %v) into the preceding slice = %v, want %v", a, b, got[base:], want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(6)
	sub, m := g.InducedSubgraph([]V{1, 3, 5})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.NumVertices(), sub.NumEdges())
	}
	if len(m) != 3 || m[0] != 1 || m[1] != 3 || m[2] != 5 {
		t.Fatalf("mapping = %v", m)
	}
	// duplicates ignored
	sub2, _ := g.InducedSubgraph([]V{1, 1, 3})
	if sub2.NumVertices() != 2 || sub2.NumEdges() != 1 {
		t.Fatalf("induced with dup: n=%d m=%d", sub2.NumVertices(), sub2.NumEdges())
	}
}

func TestInducedSubgraphKeepsLabels(t *testing.T) {
	b := NewBuilder(4, false)
	for v := V(0); v < 4; v++ {
		b.SetLabel(v, int32(v)*10)
	}
	b.AddLabeledEdge(0, 1, 3)
	b.AddLabeledEdge(1, 2, 4)
	g := b.Build()
	sub, m := g.InducedSubgraph([]V{1, 2})
	if sub.Label(0) != 10 || sub.Label(1) != 20 {
		t.Fatalf("labels lost: %d %d (map %v)", sub.Label(0), sub.Label(1), m)
	}
	if sub.EdgeLabel(0, 1) != 4 {
		t.Fatalf("edge label lost: %d", sub.EdgeLabel(0, 1))
	}
}

func TestEdgesOnce(t *testing.T) {
	g := completeGraph(5)
	count := 0
	g.EdgesOnce(func(u, v V) {
		if u >= v {
			t.Fatalf("EdgesOnce order violated: %d %d", u, v)
		}
		count++
	})
	if count != 10 {
		t.Fatalf("K5 EdgesOnce = %d", count)
	}
}
