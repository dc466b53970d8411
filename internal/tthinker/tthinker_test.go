package tthinker

import (
	"reflect"
	"sort"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// naive maximal clique enumeration for cross-checking (exponential).
func naiveMaximalCliques(g *graph.Graph) [][]graph.V {
	n := g.NumVertices()
	var out [][]graph.V
	var subsets func(i int, cur []graph.V)
	isClique := func(s []graph.V) bool {
		for i := 0; i < len(s); i++ {
			for j := i + 1; j < len(s); j++ {
				if !g.HasEdge(s[i], s[j]) {
					return false
				}
			}
		}
		return true
	}
	subsets = func(i int, cur []graph.V) {
		if i == n {
			if len(cur) == 0 || !isClique(cur) {
				return
			}
			// maximal?
			for v := graph.V(0); int(v) < n; v++ {
				if containsV(cur, v) {
					continue
				}
				ok := true
				for _, u := range cur {
					if !g.HasEdge(u, v) {
						ok = false
						break
					}
				}
				if ok {
					return
				}
			}
			out = append(out, append([]graph.V(nil), cur...))
			return
		}
		subsets(i+1, cur)
		subsets(i+1, append(cur, graph.V(i)))
	}
	subsets(0, nil)
	return out
}

func containsV(s []graph.V, v graph.V) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestMaximalCliquesOnKnownGraphs(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		count int64
		maxSz int
	}{
		{gen.Clique(5), 1, 5},
		{gen.Grid(3, 3), 12, 2}, // every edge is a maximal clique in a grid
		{graph.FromEdges(5, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}), 3, 3},
	}
	for i, c := range cases {
		res, _ := MaximalCliques(c.g, false, Config{Workers: 4})
		if res.Count != c.count {
			t.Errorf("case %d: count=%d want %d", i, res.Count, c.count)
		}
		if len(res.Largest) != c.maxSz {
			t.Errorf("case %d: largest=%d want %d", i, len(res.Largest), c.maxSz)
		}
	}
}

func TestMaximalCliquesMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := gen.ErdosRenyi(14, 40, seed)
		want := naiveMaximalCliques(g)
		res, _ := MaximalCliques(g, true, Config{Workers: 3})
		if int(res.Count) != len(want) {
			t.Fatalf("seed %d: count=%d want %d", seed, res.Count, len(want))
		}
		// compare sets
		norm := func(cs [][]graph.V) map[string]bool {
			m := map[string]bool{}
			for _, c := range cs {
				c = append([]graph.V(nil), c...)
				sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
				key := ""
				for _, v := range c {
					key += string(rune(v)) + ","
				}
				m[key] = true
			}
			return m
		}
		a, b := norm(res.Cliques), norm(want)
		for k := range b {
			if !a[k] {
				t.Fatalf("seed %d: missing clique", seed)
			}
		}
		for k := range a {
			if !b[k] {
				t.Fatalf("seed %d: spurious clique", seed)
			}
		}
	}
}

func TestMaximalCliquesWithSplitting(t *testing.T) {
	g := gen.ErdosRenyi(60, 500, 5)
	resNoSplit, _ := MaximalCliques(g, false, Config{Workers: 4})
	resSplit, stats := MaximalCliques(g, false, Config{Workers: 4, Budget: 5})
	if resSplit.Count != resNoSplit.Count {
		t.Fatalf("splitting changed result: %d vs %d", resSplit.Count, resNoSplit.Count)
	}
	if stats.Splits == 0 {
		t.Fatal("expected task splits with tiny budget")
	}
	if stats.Tasks <= int64(g.NumVertices()) {
		t.Fatalf("expected more tasks than roots, got %d", stats.Tasks)
	}
}

func TestMaximumClique(t *testing.T) {
	// K6 planted in a sparse random graph
	b := graph.NewBuilder(60, false)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	er := gen.ErdosRenyi(60, 120, 3)
	er.EdgesOnce(func(u, v graph.V) { b.AddEdge(u, v) })
	g := b.Build()
	best, _ := MaximumClique(g, Config{Workers: 4})
	if len(best) < 6 {
		t.Fatalf("maximum clique size %d, want >= 6", len(best))
	}
	// verify it is a clique
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if !g.HasEdge(best[i], best[j]) {
				t.Fatal("returned set is not a clique")
			}
		}
	}
}

func TestMaximumCliqueEqualsBKLargest(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(40, 250, seed)
		bk, _ := MaximalCliques(g, false, Config{Workers: 4})
		mc, _ := MaximumClique(g, Config{Workers: 4, Budget: 50})
		if !reflect.DeepEqual(mc, bk.Largest) {
			t.Fatalf("seed %d: B&B found %v, BK found %v", seed, mc, bk.Largest)
		}
	}
}

// TestMaximumCliqueLargestRootFirst: the roots with the largest candidate
// sets run first, so the incumbent is large early and prunes most of the
// search. At one worker BA(400,8,1) takes 2,467 ticks; run smallest-first it
// took 3,533.
func TestMaximumCliqueLargestRootFirst(t *testing.T) {
	g := gen.BarabasiAlbert(400, 8, 1)
	mc, st := MaximumClique(g, Config{Workers: 1})
	if st.Ticks > 2600 {
		t.Fatalf("MaximumClique took %d ticks, want at most 2,600", st.Ticks)
	}
	bk, _ := MaximalCliques(g, false, Config{Workers: 1})
	if !reflect.DeepEqual(mc, bk.Largest) {
		t.Fatalf("B&B found %v, BK found %v", mc, bk.Largest)
	}
}

func TestQuasiCliquesGamma1IsCliques(t *testing.T) {
	// with γ=1 quasi-cliques are cliques
	g := gen.Clique(4)
	sets, _ := QuasiCliques(g, 1.0, 3, Config{Workers: 2})
	if len(sets) != 1 || len(sets[0]) != 4 {
		t.Fatalf("γ=1 on K4: %v", sets)
	}
}

func TestQuasiCliquesFindPlanted(t *testing.T) {
	// near-clique: K5 minus one edge is a 0.7-quasi-clique (min degree 3 ≥ ⌈0.7·4⌉=3)
	b := graph.NewBuilder(10, false)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 0 && v == 1 {
				continue
			}
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	b.AddEdge(5, 6)
	g := b.Build()
	sets, _ := QuasiCliques(g, 0.7, 5, Config{Workers: 2})
	found := false
	for _, s := range sets {
		if len(s) == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted quasi-clique not found: %v", sets)
	}
}

func TestIsQuasiClique(t *testing.T) {
	g := gen.Clique(4)
	if !IsQuasiClique(g, []graph.V{0, 1, 2, 3}, 1.0) {
		t.Fatal("K4 must be a 1.0-quasi-clique")
	}
	p := graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}})
	if IsQuasiClique(p, []graph.V{0, 1, 2}, 1.0) {
		t.Fatal("path is not a 1.0-quasi-clique")
	}
	if !IsQuasiClique(p, []graph.V{0, 1, 2}, 0.5) {
		t.Fatal("path IS a 0.5-quasi-clique (min degree 1 ≥ ⌈0.5·2⌉=1)")
	}
}

func TestTrussDecomposition(t *testing.T) {
	// K4: every edge has truss number 4
	truss := TrussDecomposition(gen.Clique(4))
	if len(truss) != 6 {
		t.Fatalf("K4 has %d edges in decomposition", len(truss))
	}
	for e, k := range truss {
		if k != 4 {
			t.Fatalf("edge %v truss=%d want 4", e, k)
		}
	}
	// path: all edges truss 2
	for e, k := range TrussDecomposition(graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}})) {
		if k != 2 {
			t.Fatalf("path edge %v truss=%d want 2", e, k)
		}
	}
}

func TestKTrussSubgraph(t *testing.T) {
	// K5 plus pendant path: 4-truss (and 5-truss) is exactly the K5
	b := graph.NewBuilder(8, false)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	g := b.Build()
	vs := KTrussSubgraph(g, 4)
	if len(vs) != 5 {
		t.Fatalf("4-truss = %v", vs)
	}
	if MaxTruss(g) != 5 {
		t.Fatalf("max truss = %d", MaxTruss(g))
	}
}

// TestCliqueResultsScheduleIndependent checks that the answer is a function
// of the graph alone: every worker count and split budget, repeated, gives
// one CliqueResult (Cliques order included) and one MaximumClique, and
// Largest is the least (sorted) maximum clique.
func TestCliqueResultsScheduleIndependent(t *testing.T) {
	g := gen.BarabasiAlbert(400, 8, 1)
	var want CliqueResult
	var wantMax []graph.V
	runs := 0
	for rep := 0; rep < 4; rep++ {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, budget := range []int64{0, 100, 1000} {
				cfg := Config{Workers: workers, Budget: budget}
				res, _ := MaximalCliques(g, true, cfg)
				mc, _ := MaximumClique(g, cfg)
				if runs == 0 {
					want, wantMax = res, mc
				} else if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(mc, wantMax) {
					t.Fatalf("workers %d budget %d: result differs from the first run", workers, budget)
				}
				runs++
			}
		}
	}
	if !sort.SliceIsSorted(want.Largest, func(i, j int) bool { return want.Largest[i] < want.Largest[j] }) {
		t.Fatalf("Largest %v is not sorted", want.Largest)
	}
	var least []graph.V
	for _, c := range want.Cliques {
		if len(c) > len(least) || (len(c) == len(least) && lessVSlice(c, least)) {
			least = c
		}
	}
	if !reflect.DeepEqual(want.Largest, least) || !reflect.DeepEqual(wantMax, least) {
		t.Fatalf("Largest %v, MaximumClique %v; least maximum clique is %v", want.Largest, wantMax, least)
	}
}

func TestRunEmptyRoots(t *testing.T) {
	total, stats := Run(nil, func(ctx *Ctx[int, int], t int) { ctx.Emit(t) },
		func(a, b int) int { return a + b }, Config{Workers: 2})
	if total != 0 || stats.Tasks != 0 {
		t.Fatalf("empty run: total=%d tasks=%d", total, stats.Tasks)
	}
}

func TestRunMergesAcrossWorkers(t *testing.T) {
	roots := make([]int, 100)
	for i := range roots {
		roots[i] = i
	}
	total, stats := Run(roots, func(ctx *Ctx[int, int], t int) { ctx.Emit(t) },
		func(a, b int) int { return a + b }, Config{Workers: 7})
	if total != 99*100/2 {
		t.Fatalf("total=%d", total)
	}
	if stats.Tasks != 100 {
		t.Fatalf("tasks=%d", stats.Tasks)
	}
	for i, r := range roots {
		if r != i {
			t.Fatalf("Run changed roots[%d] to %d", i, r)
		}
	}
}
