package blogel

import (
	"math"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/storage"
)

// build decomposes an in-memory graph through its InMemory source.
func build(t *testing.T, g *graph.Graph, part *partition.Partition) *Blocks {
	t.Helper()
	b, err := BuildSource(storage.InMemory(g).Handle(0), part)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildBlocksAreConnectedAndCover(t *testing.T) {
	g := gen.PlantedPartitionSparse(400, 4, 8, 1, 3).Graph
	b := build(t, g, partition.Metis(g, 4))
	if b.NumBlock <= 0 {
		t.Fatal("no blocks")
	}
	// every vertex assigned
	for v, id := range b.BlockOf {
		if id < 0 || int(id) >= b.NumBlock {
			t.Fatalf("vertex %d block %d", v, id)
		}
	}
	if len(b.BlockOf) != g.NumVertices() {
		t.Fatalf("blocks cover %d of %d vertices", len(b.BlockOf), g.NumVertices())
	}
	// each block is connected within the original graph
	for id := int32(0); int(id) < b.NumBlock; id++ {
		var vs []graph.V
		for v, bid := range b.BlockOf {
			if bid == id {
				vs = append(vs, graph.V(v))
			}
		}
		sub, _ := g.InducedSubgraph(vs)
		if _, comps := graph.ConnectedComponents(sub); comps != 1 {
			t.Fatalf("block %d has %d components", id, comps)
		}
	}
	// quotient edges only between distinct blocks with a cross edge
	b.Quotient.EdgesOnce(func(x, y graph.V) {
		if x == y {
			t.Fatal("self edge in quotient")
		}
	})
}

func TestBlockCCMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(300, 350, seed) // sparse: several components
		b := build(t, g, partition.Hash(g, 4))
		res, err := b.ConnectedComponents(4)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCount := graph.ConnectedComponents(g)
		seen := map[int32]bool{}
		for _, l := range res.Labels {
			seen[l] = true
		}
		if len(seen) != wantCount {
			t.Fatalf("seed %d: %d components, want %d", seed, len(seen), wantCount)
		}
		for u := 0; u < 300; u++ {
			for v := u + 1; v < 300; v += 7 {
				if (want[u] == want[v]) != (res.Labels[u] == res.Labels[v]) {
					t.Fatalf("seed %d: vertices %d,%d disagree", seed, u, v)
				}
			}
		}
	}
}

func TestBlockCCBeatsVertexCentric(t *testing.T) {
	// long path: vertex-centric HashMin needs ~n rounds; block-centric needs
	// ~(#blocks) rounds — the Blogel killer case
	n := 600
	bld := graph.NewBuilder(n, false)
	for v := 0; v < n-1; v++ {
		bld.AddEdge(graph.V(v), graph.V(v+1))
	}
	g := bld.Build()
	_, vres, _ := pregel.HashMinCC(g, pregel.Config{Workers: 4, MaxSupersteps: 10000})
	b := build(t, g, partition.Range(g, 8))
	bres, _ := b.ConnectedComponents(4)
	if bres.Supersteps >= vres.Supersteps/10 {
		t.Fatalf("block-centric %d rounds not ≪ vertex-centric %d", bres.Supersteps, vres.Supersteps)
	}
	if bres.Messages >= vres.Net.Messages+vres.Net.LocalMessages {
		t.Fatalf("block-centric messages %d not below vertex-centric", bres.Messages)
	}
}

func TestBlockPageRankApproximatesExact(t *testing.T) {
	g := gen.PlantedPartitionSparse(300, 3, 10, 1, 5).Graph
	exact, _, _ := pregel.PageRank(g, 50, pregel.Config{Workers: 4})
	b := build(t, g, partition.Metis(g, 3))
	approx, _ := b.PageRank(g, 10)
	// warm-started run with few global iterations should land close
	var maxDiff float64
	for v := range exact {
		if d := math.Abs(exact[v] - approx[v]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.005 {
		t.Fatalf("block PageRank deviates by %g", maxDiff)
	}
	// and should sum to ~1
	sum := 0.0
	for _, r := range approx {
		sum += r
	}
	if math.Abs(sum-1) > 0.05 {
		t.Fatalf("ranks sum to %f", sum)
	}
}

func TestBlocksDisconnectedGraph(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.V{{0, 1}, {2, 3}, {4, 5}})
	b := build(t, g, partition.Hash(g, 2))
	res, _ := b.ConnectedComponents(2)
	seen := map[int32]bool{}
	for _, l := range res.Labels {
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Fatalf("found %d components, want 3", len(seen))
	}
}
