package mining

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// naiveConnectedInduced counts connected induced subgraphs of size k by
// enumerating all C(n,k) subsets.
func naiveConnectedInduced(g *graph.Graph, k int) int64 {
	n := g.NumVertices()
	var count int64
	var cur []graph.V
	var rec func(start int)
	connected := func(s []graph.V) bool {
		if len(s) == 0 {
			return false
		}
		seen := map[graph.V]bool{s[0]: true}
		stack := []graph.V{s[0]}
		inSet := map[graph.V]bool{}
		for _, v := range s {
			inSet[v] = true
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if inSet[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return len(seen) == len(s)
	}
	rec = func(start int) {
		if len(cur) == k {
			if connected(cur) {
				count++
			}
			return
		}
		for v := start; v < n; v++ {
			cur = append(cur, graph.V(v))
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return count
}

func countExplored(g *graph.Graph, k int) int64 {
	var mu sync.Mutex
	var c int64
	Explore(g, k, nil, func(sub []graph.V) {
		mu.Lock()
		c++
		mu.Unlock()
	}, Config{Workers: 3})
	return c
}

func TestESUCountsMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(12, 25, seed)
		for k := 1; k <= 4; k++ {
			want := naiveConnectedInduced(g, k)
			got := countExplored(g, k)
			if got != want {
				t.Fatalf("seed %d k=%d: got %d want %d", seed, k, got, want)
			}
		}
	}
}

func TestESUNoDuplicates(t *testing.T) {
	g := gen.Clique(6)
	var mu sync.Mutex
	seen := map[string]bool{}
	Explore(g, 3, nil, func(sub []graph.V) {
		s := append([]graph.V(nil), sub...)
		// canonical key by sorted vertex ids
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		key := ""
		for _, v := range s {
			key += string(rune('a'+v)) + ","
		}
		mu.Lock()
		if seen[key] {
			t.Errorf("duplicate embedding %v", s)
		}
		seen[key] = true
		mu.Unlock()
	}, Config{Workers: 4})
	if len(seen) != 20 { // C(6,3)
		t.Fatalf("K6 size-3 subgraphs: %d want 20", len(seen))
	}
}

func TestMotifCountsKnown(t *testing.T) {
	tri := CanonicalCode(gen.Clique(3), []graph.V{0, 1, 2})
	wedgeG := graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}})
	wedge := CanonicalCode(wedgeG, []graph.V{0, 1, 2})

	counts, _ := MotifCounts(gen.Clique(4), 3, Config{})
	if counts[tri] != 4 || counts[wedge] != 0 {
		t.Fatalf("K4 motifs: %v", counts)
	}
	counts, _ = MotifCounts(graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}}), 3, Config{})
	if counts[wedge] != 2 || counts[tri] != 0 {
		t.Fatalf("P4 motifs: %v", counts)
	}
	counts, _ = MotifCounts(gen.Grid(3, 3), 3, Config{})
	if counts[tri] != 0 || counts[wedge] != 22 {
		t.Fatalf("grid motifs: %v", counts)
	}
}

func TestPatternName(t *testing.T) {
	tri := CanonicalCode(gen.Clique(3), []graph.V{0, 1, 2})
	if PatternName(tri) != "triangle" {
		t.Fatalf("triangle name = %q", PatternName(tri))
	}
	k4 := CanonicalCode(gen.Clique(4), []graph.V{0, 1, 2, 3})
	if PatternName(k4) != "K4" {
		t.Fatalf("K4 name = %q", PatternName(k4))
	}
}

func TestCanonicalCodeIsomorphismInvariant(t *testing.T) {
	// same diamond, two different vertex numberings
	g1 := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	g2 := graph.FromEdges(4, [][2]graph.V{{2, 3}, {3, 0}, {0, 1}, {1, 2}, {3, 1}})
	c1 := CanonicalCode(g1, []graph.V{0, 1, 2, 3})
	c2 := CanonicalCode(g2, []graph.V{0, 1, 2, 3})
	if c1 != c2 {
		t.Fatal("isomorphic graphs got different codes")
	}
	// different graphs, different codes
	cycle := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if CanonicalCode(cycle, []graph.V{0, 1, 2, 3}) == c1 {
		t.Fatal("cycle4 and diamond share a code")
	}
}

func TestCanonicalCodeRespectsLabels(t *testing.T) {
	mk := func(l0, l1 int32) *graph.Graph {
		b := graph.NewBuilder(2, false)
		b.SetLabel(0, l0)
		b.SetLabel(1, l1)
		b.AddEdge(0, 1)
		return b.Build()
	}
	a := CanonicalCode(mk(1, 2), []graph.V{0, 1})
	bcode := CanonicalCode(mk(2, 1), []graph.V{0, 1}) // same up to permutation
	c := CanonicalCode(mk(1, 1), []graph.V{0, 1})
	if a != bcode {
		t.Fatal("label permutation should not change code")
	}
	if a == c {
		t.Fatal("different label multisets must differ")
	}
}

func TestCliquesBFSvsDFS(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(40, 300, seed)
		for k := 3; k <= 5; k++ {
			bfs, _ := CountCliquesBFS(g, k, Config{})
			dfs := CountCliquesDFS(g, k)
			if bfs != dfs {
				t.Fatalf("seed %d k=%d: BFS=%d DFS=%d", seed, k, bfs, dfs)
			}
		}
	}
	// known: K6 has C(6,4)=15 4-cliques
	bfs, _ := CountCliquesBFS(gen.Clique(6), 4, Config{})
	if bfs != 15 {
		t.Fatalf("K6 4-cliques = %d", bfs)
	}
}

func TestBFSPeakGrows(t *testing.T) {
	g := gen.Clique(12)
	_, s3 := CountCliquesBFS(g, 3, Config{})
	_, s4 := CountCliquesBFS(g, 4, Config{})
	if s4.Peak <= s3.Peak {
		t.Fatalf("peak should grow with k: %d vs %d", s3.Peak, s4.Peak)
	}
	if len(s4.LevelSizes) != 4 {
		t.Fatalf("level sizes: %v", s4.LevelSizes)
	}
}

func TestMaxEmbeddingsAborts(t *testing.T) {
	g := gen.Clique(20)
	stats := Explore(g, 4, nil, nil, Config{MaxEmbeddings: 50})
	if !stats.Aborted {
		t.Fatal("expected abort under tiny embedding budget")
	}
}

func TestFrequentPatterns(t *testing.T) {
	// grid has 22 wedges and nothing else at size 3
	pats, _ := FrequentPatterns(gen.Grid(3, 3), 3, 10, Config{})
	if len(pats) != 1 {
		t.Fatalf("patterns: %v", pats)
	}
	pats, _ = FrequentPatterns(gen.Grid(3, 3), 3, 23, Config{})
	if len(pats) != 0 {
		t.Fatalf("min support 23 should filter all: %v", pats)
	}
}

func TestExploreEdgeCases(t *testing.T) {
	empty := graph.NewBuilder(0, false).Build()
	s := Explore(empty, 3, nil, nil, Config{})
	if s.Total != 0 {
		t.Fatal("empty graph explored something")
	}
	single := graph.NewBuilder(1, false).Build()
	if got := countExplored(single, 1); got != 1 {
		t.Fatalf("single vertex k=1: %d", got)
	}
	if got := countExplored(single, 2); got != 0 {
		t.Fatalf("single vertex k=2: %d", got)
	}
}

func TestCanonicalCodeRelabelInvarianceProperty(t *testing.T) {
	// property: CanonicalCode is invariant under random vertex relabelings
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(3)
		g := gen.WithRandomLabels(gen.ErdosRenyi(n, int64(n*2), seed), 3, seed+1)
		vs := make([]graph.V, n)
		for i := range vs {
			vs[i] = graph.V(i)
		}
		orig := CanonicalCode(g, vs)
		// random relabeling
		perm := rng.Perm(n)
		b := graph.NewBuilder(n, false)
		for v := 0; v < n; v++ {
			b.SetLabel(graph.V(perm[v]), g.Label(graph.V(v)))
		}
		g.EdgesOnce(func(u, v graph.V) {
			b.AddEdge(graph.V(perm[u]), graph.V(perm[v]))
		})
		return CanonicalCode(b.Build(), vs) == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
