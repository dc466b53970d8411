package refmodel_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"graphsys/internal/blogel"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/graphd"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/refmodel"
	"graphsys/internal/storage"
)

// TestSpecsByHand pins the specs on graphs small enough to trace by hand.
func TestSpecsByHand(t *testing.T) {
	// the path 0-3-1-4-2 plus the isolated vertex 5: the sweep carries label
	// 0 to 3 and 1 in pass 1, to 4 and 2 in pass 2, and pass 3 changes nothing
	g := graph.FromEdges(6, [][2]graph.V{{0, 3}, {3, 1}, {1, 4}, {4, 2}})
	want := []int32{0, 0, 0, 0, 0, 5}
	cc := refmodel.CC(g)
	labels, passes := refmodel.ScanCC(g)
	for v := range want {
		if cc[v] != want[v] || labels[v] != want[v] {
			t.Fatalf("label[%d]: CC %d, ScanCC %d, want %d", v, cc[v], labels[v], want[v])
		}
	}
	if passes != 3 {
		t.Fatalf("ScanCC took %d passes, want 3", passes)
	}
	// a triangle keeps its uniform rank; an isolated vertex keeps only the
	// teleport term, and its mass leaks
	tri := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})
	ranks := refmodel.ScanPageRank(tri, 5)
	for v, r := range []float64{0.25, 0.25, 0.25, 0.15 / 4} {
		if math.Abs(ranks[v]-r) > 1e-15 {
			t.Fatalf("rank[%d] = %v, want %v", v, ranks[v], r)
		}
	}
	// BFS counts hops along the path and leaves the isolated vertex at -1
	levels := refmodel.BFS(g, 0)
	for v, l := range []int32{0, 2, 4, 1, 3, -1} {
		if levels[v] != l {
			t.Fatalf("BFS level[%d] = %d, want %d", v, levels[v], l)
		}
	}
	// Dijkstra weighs an arc by its label, and an unlabeled arc by 1: the
	// heavy edge 0-2 loses to the path 0-1-2, and 2-3 weighs 1
	b := graph.NewBuilder(5, false)
	b.AddLabeledEdge(0, 1, 2)
	b.AddLabeledEdge(1, 2, 3)
	b.AddLabeledEdge(0, 2, 9)
	b.AddEdge(2, 3)
	dist := refmodel.Dijkstra(b.Build(), 0)
	for v, d := range []int64{0, 2, 5, 6, -1} {
		if dist[v] != d {
			t.Fatalf("Dijkstra dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
}

// The engines FuzzAnalyticsVsSpec draws from.
const (
	pregelCCMem = iota
	pregelCCDisk
	pregelPRMem
	pregelPRDisk
	blogelCCMem
	blogelCCDisk
	graphdCC
	graphdPR
	numEngines
)

var engineNames = [numEngines]string{
	"pregel HashMinCC in memory", "pregel HashMinCC from a block file",
	"pregel PageRank in memory", "pregel PageRank from a block file",
	"blogel BuildSource+CC in memory", "blogel BuildSource+CC from a block file",
	"graphd BlockFile CC", "graphd BlockFile PageRank",
}

// drawGraph draws an undirected graph of one of three families — Erdős–Rényi,
// R-MAT, or a path/grid — then adds isolated vertices and relabels every
// vertex by a random permutation, so isolated and hub vertices land anywhere
// in the id order the engines scan in.
func drawGraph(rng *rand.Rand, family uint8) *graph.Graph {
	var g *graph.Graph
	switch family % 3 {
	case 0:
		n := 1 + rng.IntN(200)
		g = gen.ErdosRenyi(n, int64(rng.IntN(2*n)), rng.Int64())
	case 1:
		g = gen.RMAT(3+rng.IntN(5), 1+rng.IntN(4), rng.Int64())
	default: // one row is a path
		g = gen.Grid(1+rng.IntN(6), 1+rng.IntN(30))
	}
	n := g.NumVertices() + rng.IntN(g.NumVertices()/4+2)
	perm := rng.Perm(n)
	b := graph.NewBuilder(n, false)
	g.EdgesOnce(func(u, v graph.V) { b.AddEdge(graph.V(perm[u]), graph.V(perm[v])) })
	return b.Build()
}

// FuzzAnalyticsVsSpec checks every analytics engine against the serial
// specs: CC labels equal refmodel.CC's everywhere (blogel's, which name a
// component's smallest block, after renaming each label to the smallest
// vertex that holds it); graphd's pass count equals refmodel.ScanCC's;
// graphd's PageRank is refmodel.ScanPageRank's bit for bit, and pregel's,
// which sums in message order, is within 1e-9 of it. The draw covers the
// graph, the engine, workers {1,2,4}, the block size, and a cache budget
// from the feasible minimum up to the whole file.
func FuzzAnalyticsVsSpec(f *testing.F) {
	for e := uint8(0); e < numEngines; e++ {
		for fam := uint8(0); fam < 3; fam++ {
			for rep := uint8(0); rep < 3; rep++ {
				f.Add(uint64(e)*9+uint64(fam)*3+uint64(rep)+1, fam, e, e+fam+rep, uint8(85*rep))
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, family, engine, workersSel, budgetSel uint8) {
		rng := rand.New(rand.NewPCG(seed, 34))
		g := drawGraph(rng, family)
		e := int(engine % numEngines)
		w := []int{1, 2, 4}[workersSel%3]
		name := fmt.Sprintf("%s (n=%d arcs=%d workers=%d)", engineNames[e], g.NumVertices(), g.NumArcs(), w)
		path := filepath.Join(t.TempDir(), "g.gsb")
		info, err := storage.Write(path, g, storage.Options{BlockBytes: 32 << rng.IntN(6)})
		if err != nil {
			t.Fatal(err)
		}
		// open draws the budget: each handle gets the largest decoded block
		// plus budgetSel/255 of the whole decoded graph
		open := func(handles int) *storage.CachedProvider {
			pol := storage.LRU
			if seed%2 == 1 {
				pol = storage.MRU
			}
			per := info.MaxDecodedBytes + info.RawCSRBytes*int64(budgetSel)/255
			prov, err := storage.OpenCached(path, info.ResidentBytes+int64(handles)*per, handles, pol)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { prov.Close() })
			return prov
		}
		const iters = 8
		var cc []int32 // the engine's CC labels, when it computes CC
		var ranks []float64
		var passes int
		switch e {
		case pregelCCMem, pregelCCDisk:
			cfg := pregel.Config{Workers: w}
			if e == pregelCCDisk {
				cfg.Source = open(w)
				cc, _, err = pregel.HashMinCC(nil, cfg)
			} else {
				cc, _, err = pregel.HashMinCC(g, cfg)
			}
		case pregelPRMem, pregelPRDisk:
			cfg := pregel.Config{Workers: w}
			if e == pregelPRDisk {
				cfg.Source = open(w)
				ranks, _, err = pregel.PageRank(nil, iters, cfg)
			} else {
				ranks, _, err = pregel.PageRank(g, iters, cfg)
			}
		case blogelCCMem, blogelCCDisk:
			src := storage.InMemory(g).Handle(0)
			if e == blogelCCDisk {
				src = open(1).Handle(0)
			}
			part := partition.Hash(g, 1+rng.IntN(6))
			if rng.IntN(2) == 0 {
				part = partition.Range(g, 1+rng.IntN(6))
			}
			var blocks *blogel.Blocks
			if blocks, err = blogel.BuildSource(src, part); err == nil {
				var res blogel.CCResult
				res, err = blocks.ConnectedComponents(w)
				cc = minIDLabels(res.Labels)
			}
		case graphdCC, graphdPR:
			var bf *graphd.BlockFile
			if bf, err = graphd.OpenBlocks(path); err != nil {
				break
			}
			t.Cleanup(func() { bf.Close() })
			var st graphd.Stats
			if e == graphdCC {
				cc, st, err = bf.ConnectedComponents()
			} else {
				ranks, st, err = bf.PageRank(iters)
			}
			passes = st.Passes
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		if cc != nil {
			want := refmodel.CC(g)
			if len(cc) != len(want) {
				t.Fatalf("%s: %d labels, spec %d", name, len(cc), len(want))
			}
			for v := range want {
				if cc[v] != want[v] {
					t.Fatalf("%s: label[%d] = %d, spec %d", name, v, cc[v], want[v])
				}
			}
		}
		if e == graphdCC {
			if _, want := refmodel.ScanCC(g); passes != want {
				t.Fatalf("%s: %d passes, spec %d", name, passes, want)
			}
		}
		if ranks != nil {
			want := refmodel.ScanPageRank(g, iters)
			for v := range want {
				switch {
				case e == graphdPR && math.Float64bits(ranks[v]) != math.Float64bits(want[v]):
					t.Fatalf("%s: rank[%d] = %v, spec %v (bitwise)", name, v, ranks[v], want[v])
				case math.Abs(ranks[v]-want[v]) > 1e-9:
					t.Fatalf("%s: rank[%d] = %v, spec %v", name, v, ranks[v], want[v])
				}
			}
			if e == graphdPR && passes != iters {
				t.Fatalf("%s: %d passes, want %d", name, passes, iters)
			}
		}
	})
}

// minIDLabels renames every label to the smallest vertex that holds it, so
// labellings that induce the same partition compare equal.
func minIDLabels(labels []int32) []int32 {
	first := make(map[int32]int32)
	out := make([]int32, len(labels))
	for v, l := range labels {
		if _, ok := first[l]; !ok {
			first[l] = int32(v)
		}
		out[v] = first[l]
	}
	return out
}

// FuzzBuildVsSpec checks graph.Builder.Build against refmodel.CSR: the
// offsets, every row and every arc's edge label equal the spec's. The draw
// covers n in [0, 64], directed or not, edge lists with duplicates,
// self-loops and both directions of an edge, a hub row that repeats a few
// targets up to 1,199 times, and edge labels in {0, 1, 2}. A graph keeps a
// label column iff some kept edge has a non-zero label, and an undirected
// edge reads the same label in both directions.
func FuzzBuildVsSpec(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(40), uint16(0), false, false)    // n = 0: no edges can be drawn
	f.Add(uint64(2), uint8(64), uint16(12), uint16(0), false, false)   // mostly isolated vertices
	f.Add(uint64(3), uint8(64), uint16(12), uint16(0), true, true)     // the same, directed and labeled
	f.Add(uint64(4), uint8(40), uint16(0), uint16(1000), false, false) // a hub row with 1,000 duplicates
	f.Add(uint64(5), uint8(40), uint16(0), uint16(1000), true, true)   // the same, directed and labeled
	f.Add(uint64(6), uint8(5), uint16(300), uint16(7), false, true)    // a dense tiny graph
	f.Fuzz(func(t *testing.T, seed uint64, nSel uint8, mSel, hubSel uint16, directed, labeled bool) {
		rng := rand.New(rand.NewPCG(seed, 73))
		n := int(nSel) % 65
		var edges [][2]graph.V
		if n > 0 {
			for range int(mSel) % 512 {
				u, v := graph.V(rng.IntN(n)), graph.V(rng.IntN(n))
				switch rng.IntN(8) {
				case 0:
					v = u // a self-loop
				case 1:
					edges = append(edges, [2]graph.V{v, u}) // both directions
				}
				edges = append(edges, [2]graph.V{u, v})
			}
			hub := graph.V(rng.IntN(n))
			for range int(hubSel) % 1200 {
				edges = append(edges, [2]graph.V{hub, graph.V(rng.IntN(min(n, 4)))})
			}
		}
		b := graph.NewBuilder(n, directed)
		labels := make([]int32, len(edges))
		anyLabel := false
		for i, e := range edges {
			if labeled {
				labels[i] = int32(rng.IntN(3))
			}
			anyLabel = anyLabel || labels[i] != 0 && e[0] != e[1]
			b.AddLabeledEdge(e[0], e[1], labels[i])
		}
		g := b.Build()
		offsets, adj, elabels := refmodel.CSR(n, edges, labels, directed)
		name := fmt.Sprintf("n=%d edges=%d directed=%v labeled=%v", n, len(edges), directed, anyLabel)
		if g.NumVertices() != n || g.Directed() != directed || g.HasEdgeLabels() != anyLabel {
			t.Fatalf("%s: got n=%d directed=%v labeled=%v", name, g.NumVertices(), g.Directed(), g.HasEdgeLabels())
		}
		var off int64 // g's offset of row v: the degrees before it
		for v := range graph.V(n) {
			if off != offsets[v] {
				t.Fatalf("%s: offset[%d] = %d, spec %d", name, v, off, offsets[v])
			}
			off += int64(g.Degree(v))
			if row, want := g.Neighbors(v), adj[offsets[v]:offsets[v+1]]; !slices.Equal(row, want) {
				t.Fatalf("%s: row %d = %v, spec %v", name, v, row, want)
			}
			for k, u := range g.Neighbors(v) {
				if l, want := g.EdgeLabelAt(v, k), elabels[offsets[v]+int64(k)]; l != want {
					t.Fatalf("%s: label of %d→%d = %d, spec %d", name, v, u, l, want)
				}
				if !directed && g.EdgeLabel(u, v) != g.EdgeLabelAt(v, k) {
					t.Fatalf("%s: edge {%d,%d} labelled %d one way and %d the other", name, v, u, g.EdgeLabelAt(v, k), g.EdgeLabel(u, v))
				}
			}
		}
		if g.NumArcs() != offsets[n] {
			t.Fatalf("%s: %d arcs, spec %d", name, g.NumArcs(), offsets[n])
		}
	})
}
