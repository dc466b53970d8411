package fsm

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// uniform returns a graph with all vertex labels = 1 and edge labels = 0.
func uniform(n int, edges [][2]graph.V) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.V(v), 1)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestEdgeCodeOrder(t *testing.T) {
	fwd12 := EdgeCode{1, 2, 1, 0, 1}
	fwd02 := EdgeCode{0, 2, 1, 0, 1}
	back20 := EdgeCode{2, 0, 1, 0, 1}
	fwd23 := EdgeCode{2, 3, 1, 0, 1}
	// deeper-anchored forward edge is smaller
	if !fwd12.Less(fwd02) {
		t.Fatal("(1,2) should precede (0,2)")
	}
	// among extensions of the same rightmost vertex, backward precedes forward
	if !back20.Less(fwd23) {
		t.Fatal("(2,0) should precede (2,3)")
	}
	// gSpan rule: backward (i1,·) vs forward (·,j2): backward first iff i1 < j2
	if back20.Less(fwd12) {
		t.Fatal("(2,0) must NOT precede (1,2) (i1=2 is not < j2=2)")
	}
	// label tiebreak
	a := EdgeCode{0, 1, 1, 0, 1}
	b := EdgeCode{0, 1, 1, 0, 2}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("label ordering broken")
	}
}

func TestRightmostPath(t *testing.T) {
	tri := DFSCode{{0, 1, 1, 0, 1}, {1, 2, 1, 0, 1}, {2, 0, 1, 0, 1}}
	got := tri.RightmostPath()
	want := []int{2, 1, 0}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("triangle rmpath = %v", got)
	}
	star := DFSCode{{0, 1, 1, 0, 1}, {0, 2, 1, 0, 1}}
	got = star.RightmostPath()
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("star rmpath = %v", got)
	}
}

func TestIsMin(t *testing.T) {
	// canonical triangle code
	tri := DFSCode{{0, 1, 1, 0, 1}, {1, 2, 1, 0, 1}, {2, 0, 1, 0, 1}}
	if !tri.IsMin() {
		t.Fatal("canonical triangle code rejected")
	}
	// non-canonical triangle encoding
	bad := DFSCode{{0, 1, 1, 0, 1}, {0, 2, 1, 0, 1}, {1, 2, 1, 0, 1}}
	if bad.IsMin() {
		t.Fatal("non-canonical triangle code accepted")
	}
	// single edge with la <= lb is min; reversed is not
	if !(DFSCode{{0, 1, 1, 0, 2}}).IsMin() {
		t.Fatal("edge (1,2) labels rejected")
	}
	if (DFSCode{{0, 1, 2, 0, 1}}).IsMin() {
		t.Fatal("edge with larger FromL accepted")
	}
	// wedge: canonical is (0,1)(1,2) not (0,1)(0,2)
	if !(DFSCode{{0, 1, 1, 0, 1}, {1, 2, 1, 0, 1}}).IsMin() {
		t.Fatal("canonical wedge rejected")
	}
	if (DFSCode{{0, 1, 1, 0, 1}, {0, 2, 1, 0, 1}}).IsMin() {
		t.Fatal("star-coded wedge accepted (path code is smaller)")
	}
}

func TestCodeGraphRoundTrip(t *testing.T) {
	tri := DFSCode{{0, 1, 5, 7, 6}, {1, 2, 6, 8, 9}, {2, 0, 9, 7, 5}}
	g := tri.Graph()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.Label(0) != 5 || g.Label(1) != 6 || g.Label(2) != 9 {
		t.Fatal("labels lost")
	}
	if g.EdgeLabel(1, 2) != 8 {
		t.Fatal("edge label lost")
	}
}

func TestMineTransactionsTriangle(t *testing.T) {
	db := &graph.TransactionDB{}
	db.Add(uniform(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}}), 0)
	pats := MineTransactions(db, MineConfig{MinSupport: 1})
	// expected connected subgraph patterns: edge, wedge, triangle
	if len(pats) != 3 {
		for _, p := range pats {
			t.Logf("pattern %v support %d", p.Code, p.Support)
		}
		t.Fatalf("triangle db mined %d patterns, want 3", len(pats))
	}
	for _, p := range pats {
		if p.Support != 1 {
			t.Fatalf("support %d", p.Support)
		}
	}
}

func TestMineTransactionsSupportCounting(t *testing.T) {
	db := &graph.TransactionDB{}
	// two triangles, one wedge-only transaction
	db.Add(uniform(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}}), 0)
	db.Add(uniform(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}}), 0)
	db.Add(uniform(3, [][2]graph.V{{0, 1}, {1, 2}}), 0)
	pats := MineTransactions(db, MineConfig{MinSupport: 2})
	byEdges := map[int]int{}
	for _, p := range pats {
		byEdges[len(p.Code)] = p.Support
	}
	if byEdges[1] != 3 { // single edge in all 3
		t.Fatalf("edge support = %d", byEdges[1])
	}
	if byEdges[2] != 3 { // wedge in all 3
		t.Fatalf("wedge support = %d", byEdges[2])
	}
	if byEdges[3] != 2 { // triangle in 2
		t.Fatalf("triangle support = %d", byEdges[3])
	}
	// with minSup=3 the triangle disappears
	pats = MineTransactions(db, MineConfig{MinSupport: 3})
	for _, p := range pats {
		if len(p.Code) == 3 {
			t.Fatal("triangle should be infrequent at minSup=3")
		}
	}
}

// canonical is the least encoding of pg over every permutation of its
// vertices: the vertex labels in permuted order, then the sorted list of
// edges with their labels. Two patterns get the same string iff they are
// isomorphic with vertex and edge labels kept.
func canonical(pg *graph.Graph) string {
	n := pg.NumVertices()
	perm := make([]int, n) // perm[v] is v's position
	for i := range perm {
		perm[i] = i
	}
	best := ""
	var rec func(i int)
	rec = func(i int) {
		if i < n {
			for j := i; j < n; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				rec(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			return
		}
		labels := make([]int32, n)
		for v := range labels {
			labels[perm[v]] = pg.Label(graph.V(v))
		}
		var edges []string
		pg.EdgesOnce(func(u, v graph.V) {
			a, b := perm[u], perm[v]
			edges = append(edges, fmt.Sprintf("%d-%d:%d", min(a, b), max(a, b), pg.EdgeLabel(u, v)))
		})
		slices.Sort(edges)
		if code := fmt.Sprint(labels, edges); best == "" || code < best {
			best = code
		}
	}
	rec(0)
	return best
}

// bruteFrequent enumerates every connected edge-subset pattern of every
// transaction, canonicalises it with canonical, and counts transaction
// support.
func bruteFrequent(db *graph.TransactionDB, minSup, maxEdges int) map[string]int {
	perTxn := make([]map[string]bool, db.Len())
	for gid, g := range db.Graphs {
		perTxn[gid] = map[string]bool{}
		var edges [][2]graph.V
		g.EdgesOnce(func(u, v graph.V) { edges = append(edges, [2]graph.V{u, v}) })
		for mask := 1; mask < 1<<len(edges); mask++ {
			var sel [][2]graph.V
			for i := range edges {
				if mask&(1<<i) != 0 {
					sel = append(sel, edges[i])
				}
			}
			if len(sel) > maxEdges {
				continue
			}
			// build the pattern graph over the touched vertices
			ids := map[graph.V]graph.V{}
			for _, e := range sel {
				for _, v := range []graph.V{e[0], e[1]} {
					if _, ok := ids[v]; !ok {
						ids[v] = graph.V(len(ids))
					}
				}
			}
			b := graph.NewBuilder(len(ids), false)
			for old, nw := range ids {
				b.SetLabel(nw, g.Label(old))
			}
			for _, e := range sel {
				b.AddLabeledEdge(ids[e[0]], ids[e[1]], g.EdgeLabel(e[0], e[1]))
			}
			pg := b.Build()
			// connected?
			_, comps := graph.ConnectedComponents(pg)
			if comps != 1 {
				continue
			}
			perTxn[gid][canonical(pg)] = true
		}
	}
	counts := map[string]int{}
	for _, m := range perTxn {
		for code := range m {
			counts[code]++
		}
	}
	for code, c := range counts {
		if c < minSup {
			delete(counts, code)
		}
	}
	return counts
}

// withoutEdgeLabels rebuilds db with its vertex labels and every edge
// label 0.
func withoutEdgeLabels(db *graph.TransactionDB) *graph.TransactionDB {
	clean := &graph.TransactionDB{}
	for i, g := range db.Graphs {
		b := graph.NewBuilder(g.NumVertices(), false)
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			b.SetLabel(v, g.Label(v))
		}
		g.EdgesOnce(func(u, v graph.V) { b.AddEdge(u, v) })
		clean.Add(b.Build(), db.Class[i])
	}
	return clean
}

// TestMineTransactionsMatchesBruteForce checks gSpan's patterns and supports
// against every connected edge subset of every transaction, on a database
// without edge labels and on two with them.
func TestMineTransactionsMatchesBruteForce(t *testing.T) {
	const maxEdges = 3
	for _, c := range []struct {
		name    string
		db      *graph.TransactionDB
		minSups []int
	}{
		{"unlabeled edges", withoutEdgeLabels(gen.MoleculeDB(8, 4, 2, 0.8, 17)), []int{3, 5}},
		{"labeled edges, seed 3", gen.MoleculeDB(8, 4, 2, 0.8, 3), []int{2, 3}},
		{"labeled edges, seed 5", gen.MoleculeDB(8, 4, 2, 0.8, 5), []int{2, 3}},
	} {
		for _, minSup := range c.minSups {
			want := bruteFrequent(c.db, minSup, maxEdges)
			got := map[string]int{}
			for _, p := range MineTransactions(c.db, MineConfig{MinSupport: minSup, MaxEdges: maxEdges}) {
				code := canonical(p.Graph())
				if prev, dup := got[code]; dup {
					t.Fatalf("%s, minSup=%d: duplicate pattern mined: %v (support %d and %d)", c.name, minSup, p.Code, prev, p.Support)
				}
				got[code] = p.Support
			}
			if len(got) != len(want) {
				t.Errorf("%s, minSup=%d: mined %d patterns, brute force %d", c.name, minSup, len(got), len(want))
				continue
			}
			for code, sup := range want {
				if got[code] != sup {
					t.Errorf("%s, minSup=%d: pattern %s: support %d, brute force %d", c.name, minSup, code, got[code], sup)
				}
			}
		}
	}
}

func TestMNI(t *testing.T) {
	// two embeddings sharing vertex images on index 0
	projs := []*embedding{
		{vertices: []graph.V{0, 1}},
		{vertices: []graph.V{0, 2}},
	}
	if MNI(2, projs) != 1 {
		t.Fatalf("MNI = %d want 1 (vertex 0 pinned)", MNI(2, projs))
	}
	projs = append(projs, &embedding{vertices: []graph.V{3, 4}})
	if MNI(2, projs) != 2 {
		t.Fatalf("MNI = %d want 2", MNI(2, projs))
	}
	if MNI(2, nil) != 0 {
		t.Fatal("empty MNI")
	}
}

func TestMineSingleGraphDisjointTriangles(t *testing.T) {
	// two disjoint uniform triangles: edge/wedge/triangle all have MNI 6
	g := uniform(6, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	pats := MineSingleGraph(g, MineConfig{MinSupport: 6})
	if len(pats) != 3 {
		for _, p := range pats {
			t.Logf("%v sup=%d", p.Code, p.Support)
		}
		t.Fatalf("mined %d patterns, want 3", len(pats))
	}
	for _, p := range pats {
		if p.Support != 6 {
			t.Fatalf("pattern %v MNI=%d want 6", p.Code, p.Support)
		}
	}
	if pats2 := MineSingleGraph(g, MineConfig{MinSupport: 7}); len(pats2) != 0 {
		t.Fatalf("minSup=7 should yield nothing, got %d", len(pats2))
	}
}

func TestMineSingleGraphLabeled(t *testing.T) {
	// path A-B-A-B-A: edge (A,B) has MNI min(|{A images}|, |{B images}|)
	b := graph.NewBuilder(5, false)
	labels := []int32{1, 2, 1, 2, 1}
	for v, l := range labels {
		b.SetLabel(graph.V(v), l)
	}
	for v := 0; v < 4; v++ {
		b.AddEdge(graph.V(v), graph.V(v+1))
	}
	g := b.Build()
	pats := MineSingleGraph(g, MineConfig{MinSupport: 2, MaxEdges: 1})
	if len(pats) != 1 {
		t.Fatalf("mined %d 1-edge patterns", len(pats))
	}
	if pats[0].Support != 2 { // 3 A-images, 2 B-images → MNI 2
		t.Fatalf("A-B support = %d want 2", pats[0].Support)
	}
}

func TestMineSingleGraphSerialMatchesParallel(t *testing.T) {
	g := gen.WithRandomLabels(gen.ErdosRenyi(40, 80, 3), 2, 5)
	// relabel edges to 0 by rebuilding (WithRandomLabels keeps edges unlabeled)
	a := MineSingleGraph(g, MineConfig{MinSupport: 8, MaxEdges: 3, Workers: 8})
	b := MineSingleGraph(g, MineConfig{MinSupport: 8, MaxEdges: 3, Workers: 1})
	if len(a) != len(b) {
		t.Fatalf("parallel %d vs serial %d patterns", len(a), len(b))
	}
	for i := range a {
		if a[i].Code.String() != b[i].Code.String() || a[i].Support != b[i].Support {
			t.Fatalf("pattern %d differs", i)
		}
	}
}

func TestMaxEdgesLimit(t *testing.T) {
	db := &graph.TransactionDB{}
	db.Add(uniform(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}}), 0)
	pats := MineTransactions(db, MineConfig{MinSupport: 1, MaxEdges: 2})
	for _, p := range pats {
		if len(p.Code) > 2 {
			t.Fatalf("pattern with %d edges escaped MaxEdges=2", len(p.Code))
		}
	}
}

// patternDigest is the FNV-64a of every pattern's DFS code and support, in
// the order mined (sorted by code).
func patternDigest(pats []Pattern) uint64 {
	h := fnv.New64a()
	for _, p := range pats {
		fmt.Fprintf(h, "%v:%d;", p.Code, p.Support)
	}
	return h.Sum64()
}

// disjointUnion places every transaction of db side by side in one graph.
func disjointUnion(db *graph.TransactionDB) *graph.Graph {
	n := 0
	for _, g := range db.Graphs {
		n += g.NumVertices()
	}
	b := graph.NewBuilder(n, false)
	base := graph.V(0)
	for _, g := range db.Graphs {
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			b.SetLabel(base+v, g.Label(v))
		}
		g.EdgesOnce(func(u, v graph.V) { b.AddEdge(base+u, base+v) })
		base += graph.V(g.NumVertices())
	}
	return b.Build()
}

// TestMinedPatternsPinned pins both miners' output bit for bit, at one and
// at four workers. The input has no edge labels, so it does not depend on
// how graph.Builder resolves the labels of parallel arcs. The values were
// recorded before the root and extension enumerators were shared between
// the miners and IsMin, which had to leave every pattern and support as it
// was.
func TestMinedPatternsPinned(t *testing.T) {
	db := withoutEdgeLabels(gen.MoleculeDB(40, 8, 3, 0.9, 11))
	g := disjointUnion(db)
	for _, workers := range []int{1, 4} {
		tx := MineTransactions(db, MineConfig{MinSupport: 4, MaxEdges: 4, Workers: workers})
		sg := MineSingleGraph(g, MineConfig{MinSupport: 12, MaxEdges: 3, Workers: workers})
		for _, c := range []struct {
			name string
			pats []Pattern
			want uint64
		}{
			{"MineTransactions", tx, 0xbea6465ca10272a2},
			{"MineSingleGraph", sg, 0x8a0ecb6487829cc1},
		} {
			if got := patternDigest(c.pats); got != c.want {
				t.Errorf("%s, workers=%d: %d patterns, digest %#x, want %#x", c.name, workers, len(c.pats), got, c.want)
			}
		}
	}
}
