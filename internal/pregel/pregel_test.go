package pregel

import (
	"math"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/refmodel"
)

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	// On a k-regular graph (ring), PageRank is uniform = 1/n.
	n := 20
	b := graph.NewBuilder(n, false)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.V(i), graph.V((i+1)%n))
	}
	g := b.Build()
	ranks, _, _ := PageRank(g, 30, Config{Workers: 4})
	for v, r := range ranks {
		if math.Abs(r-1.0/float64(n)) > 1e-9 {
			t.Fatalf("rank[%d]=%g want %g", v, r, 1.0/float64(n))
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 1)
	ranks, _, _ := PageRank(g, 25, Config{Workers: 3})
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g", sum)
	}
}

func TestPageRankFavorsHubs(t *testing.T) {
	// star graph: center must outrank leaves
	n := 11
	b := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.V(i))
	}
	g := b.Build()
	ranks, _, _ := PageRank(g, 30, Config{Workers: 2})
	for i := 1; i < n; i++ {
		if ranks[0] <= ranks[i] {
			t.Fatalf("center rank %g <= leaf rank %g", ranks[0], ranks[i])
		}
	}
}

func TestHashMinCCMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(200, 220, seed) // sparse → several components
		want, wantCount := graph.ConnectedComponents(g)
		got, _, _ := HashMinCC(g, Config{Workers: 4})
		// compare partitions: same component iff same label
		seen := map[int32]bool{}
		for _, l := range got {
			seen[l] = true
		}
		if len(seen) != wantCount {
			t.Fatalf("seed %d: %d components, want %d", seed, len(seen), wantCount)
		}
		for u := 0; u < 200; u++ {
			for v := u + 1; v < 200; v++ {
				if (want[u] == want[v]) != (got[u] == got[v]) {
					t.Fatalf("seed %d: vertices %d,%d disagree", seed, u, v)
				}
			}
		}
	}
}

func TestHashMinCCRoundsNearDiameter(t *testing.T) {
	// a path of length L needs ~L supersteps; a random graph needs few.
	g := gen.ErdosRenyi(500, 2000, 9)
	_, res, _ := HashMinCC(g, Config{Workers: 4})
	if res.Supersteps > 20 {
		t.Fatalf("HashMin took %d supersteps on a dense random graph", res.Supersteps)
	}
}

func TestSSSPMatchesBFS(t *testing.T) {
	g := gen.ErdosRenyi(150, 400, 4)
	want := refmodel.BFS(g, 0)
	got, _, _ := SSSP(g, 0, Config{Workers: 4})
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], want[v])
		}
	}
}

func TestTriangleCountMRMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(80, 500, seed)
		want := graph.TriangleCount(g)
		got, _, _ := TriangleCountMR(g, Config{Workers: 4})
		if got != want {
			t.Fatalf("seed %d: MR=%d serial=%d", seed, got, want)
		}
	}
}

func TestTriangleCountMRMessageBlowup(t *testing.T) {
	// The MR algorithm's message count equals the wedge count (after
	// orientation) — far more than the edge count on dense graphs. This is
	// the paper's §1 criticism in miniature.
	g := gen.Clique(30)
	_, res, _ := TriangleCountMR(g, Config{Workers: 4})
	if res.Net.Messages+res.Net.LocalMessages < 2*g.NumEdges() {
		t.Fatalf("expected wedge-scale message volume, got %d msgs for %d edges",
			res.Net.Messages+res.Net.LocalMessages, g.NumEdges())
	}
}

func TestRandomWalkVisits(t *testing.T) {
	g := gen.Clique(10)
	visits, _, _ := RandomWalkVisits(g, 4, 5, 7, Config{Workers: 2})
	var total int64
	for _, c := range visits {
		total += c
	}
	// each of the 10*4 walkers visits exactly walkLen+1 vertices on a clique
	want := int64(10 * 4 * 6)
	if total != want {
		t.Fatalf("total visits %d want %d", total, want)
	}
}

func TestRandomWalkDeterminism(t *testing.T) {
	g := gen.BarabasiAlbert(100, 2, 3)
	a, _, _ := RandomWalkVisits(g, 2, 8, 42, Config{Workers: 4})
	b, _, _ := RandomWalkVisits(g, 2, 8, 42, Config{Workers: 2})
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("visits differ at %d with different worker counts: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestCombinerReducesMessages(t *testing.T) {
	g := gen.Clique(40)
	_, withComb, _ := HashMinCC(g, Config{Workers: 4})
	// same algorithm without a combiner
	prog := Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			min := *state
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(v, min)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				if m < min {
					min = m
				}
			}
			if min < *state {
				*state = min
				ctx.SendToNeighbors(v, min)
			}
			ctx.VoteToHalt()
		},
	}
	res, _ := Run(g, prog, Config{Workers: 4})
	msgsNoComb := res.Net.Messages
	if withComb.Net.Messages >= msgsNoComb {
		t.Fatalf("combiner did not reduce messages: %d vs %d", withComb.Net.Messages, msgsNoComb)
	}
}

func TestAggregator(t *testing.T) {
	g := gen.Grid(3, 3)
	sawTotal := false
	prog := Program[int, int]{
		Compute: func(ctx *Context[int], v graph.V, state *int, msgs []int) {
			switch ctx.Superstep() {
			case 0:
				ctx.Aggregate("deg", float64(ctx.Graph().Degree(v)))
				ctx.Send(v, 1) // keep self alive for one more step
			case 1:
				if got := ctx.Agg("deg"); got == float64(2*g.NumEdges()) {
					sawTotal = true
				} else if got != 0 {
					t.Errorf("agg = %f want %f", got, float64(2*g.NumEdges()))
				}
				ctx.VoteToHalt()
			}
		},
	}
	Run(g, prog, Config{Workers: 1}) // single worker: no data race on sawTotal
	if !sawTotal {
		t.Fatal("aggregator value never observed")
	}
}

func TestMaxSuperstepsBound(t *testing.T) {
	// a program that never halts must stop at MaxSupersteps
	g := gen.Grid(2, 2)
	prog := Program[int, int]{
		Compute: func(ctx *Context[int], v graph.V, state *int, msgs []int) {
			ctx.Send(v, 1)
		},
	}
	res, _ := Run(g, prog, Config{Workers: 2, MaxSupersteps: 7})
	if res.Supersteps != 7 {
		t.Fatalf("ran %d supersteps, want 7", res.Supersteps)
	}
}

func TestEmptyGraphRun(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	ranks, res, _ := PageRank(g, 5, Config{Workers: 2})
	if len(ranks) != 0 || res.Supersteps != 0 {
		t.Fatalf("empty run: %d states, %d steps", len(ranks), res.Supersteps)
	}
}

func TestCustomPartitionRespected(t *testing.T) {
	g := gen.Grid(4, 4)
	part := make([]int, 16)
	for v := range part {
		part[v] = v % 2
	}
	_, res, _ := HashMinCC(g, Config{Workers: 2, Partition: part})
	if res.Net.Messages == 0 {
		t.Fatal("expected cross-worker messages under split partition")
	}
}
