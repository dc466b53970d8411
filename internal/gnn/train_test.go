package gnn

import (
	"math/rand"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/tensor"
)

// communityTask builds a node-classification task: planted communities with
// noisy indicator features, 30% of vertices labeled for training.
func communityTask(n, k int, seed int64) (*graph.Graph, *tensor.Matrix, []int, []bool, []bool) {
	c := gen.PlantedPartitionSparse(n, k, 10, 1, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	x := tensor.New(n, k+2)
	labels := make([]int, n)
	train := make([]bool, n)
	test := make([]bool, n)
	for v := 0; v < n; v++ {
		labels[v] = c.Membership[v]
		// noisy one-hot community feature + 2 noise dims
		x.Set(v, c.Membership[v], 0.6+0.4*rng.Float32())
		for j := 0; j < k+2; j++ {
			x.Set(v, j, x.At(v, j)+0.3*(rng.Float32()-0.5))
		}
		if rng.Float32() < 0.3 {
			train[v] = true
		} else {
			test[v] = true
		}
	}
	return c.Graph, x, labels, train, test
}

func TestFullGraphTrainingAllModels(t *testing.T) {
	g, x, labels, train, test := communityTask(200, 3, 1)
	for _, kind := range []ModelKind{GCN, SAGE, GAT} {
		m := NewModel(g, kind, []int{x.Cols, 16, 3}, 2)
		res := TrainFullGraph(m, x, labels, train, test, TrainConfig{Epochs: 60, LR: 0.02})
		if res.TestAcc < 0.85 {
			t.Errorf("%v test accuracy %.3f < 0.85", kind, res.TestAcc)
		}
		// loss must decrease
		if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
			t.Errorf("%v loss did not decrease: %f -> %f", kind, res.Losses[0], res.Losses[len(res.Losses)-1])
		}
	}
}

func TestNeighborSampleShape(t *testing.T) {
	g := gen.BarabasiAlbert(500, 6, 2)
	rng := rand.New(rand.NewSource(1))
	seeds := []graph.V{1, 5, 9}
	sub := NeighborSample(g, seeds, []int{4, 4}, rng)
	// seeds are the first local vertices
	for i, loc := range sub.SeedLoc {
		if sub.NewToOld[loc] != seeds[i] {
			t.Fatalf("seed %d mapped to %d", seeds[i], sub.NewToOld[loc])
		}
	}
	// bounded by fanout budget
	max := len(seeds) * (1 + 4 + 16)
	if sub.Graph.NumVertices() > max {
		t.Fatalf("sampled %d vertices > budget %d", sub.Graph.NumVertices(), max)
	}
	// sampled subgraph must be a subgraph of g
	sub.Graph.EdgesOnce(func(u, v graph.V) {
		if !g.HasEdge(sub.NewToOld[u], sub.NewToOld[v]) {
			t.Fatal("sampled edge not in original graph")
		}
	})
}

func TestNeighborSampleSmallFanoutShrinks(t *testing.T) {
	g := gen.BarabasiAlbert(400, 8, 3)
	rng := rand.New(rand.NewSource(2))
	seeds := []graph.V{0, 10, 20, 30}
	small := NeighborSample(g, seeds, []int{2, 2}, rand.New(rand.NewSource(1)))
	big := NeighborSample(g, seeds, []int{20, 20}, rng)
	if small.Graph.NumVertices() >= big.Graph.NumVertices() {
		t.Fatalf("fanout 2 sampled %d >= fanout 20 sampled %d",
			small.Graph.NumVertices(), big.Graph.NumVertices())
	}
}

func TestModelKindString(t *testing.T) {
	if GCN.String() != "GCN" || SAGE.String() != "GraphSAGE" || GAT.String() != "GAT" {
		t.Fatal("names wrong")
	}
}
