package core

import (
	"math/rand"
	"testing"

	"graphsys/internal/fsm"
	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/mining"
	"graphsys/internal/tensor"
)

func TestPath1VertexAnalytics(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 1)
	p := NewPipeline(g, 4)
	pr := p.PageRank(20)
	if len(pr) != 200 {
		t.Fatal("pagerank length")
	}
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("pagerank sum %f", sum)
	}
	cc := p.ConnectedComponents()
	if len(cc) != 200 {
		t.Fatal("cc length")
	}
}

func TestPath2FeaturesAndClassifier(t *testing.T) {
	task := gnn.SyntheticCommunityTask(200, 2, 2, 0.4, 3)
	p := NewPipeline(task.G, 4)
	sf := p.StructuralFeatureMatrix()
	if sf.Rows != 200 || sf.Cols != graph.FeatureDim {
		t.Fatal("structural feature shape")
	}
	clf := p.TrainNodeClassifier(task.X, task.Labels, task.TrainMask, 1)
	if acc := clf.Accuracy(task.X, task.Labels, task.TestMask); acc < 0.85 {
		t.Fatalf("feature classifier accuracy %.3f", acc)
	}
	emb := p.DeepWalkEmbeddings(16, 5)
	if emb.Rows != 200 || emb.Cols != 16 {
		t.Fatal("embedding shape")
	}
}

func TestPath2GNN(t *testing.T) {
	task := gnn.SyntheticCommunityTask(150, 3, 2, 0.3, 5)
	p := NewPipeline(task.G, 4)
	if acc := p.TrainGNN(task, gnn.GCN, 16, 50, 2); acc < 0.85 {
		t.Fatalf("GNN accuracy %.3f", acc)
	}
}

func TestPath3Structures(t *testing.T) {
	// planted K6 + sparse noise
	b := graph.NewBuilder(40, false)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	gen.ErdosRenyi(40, 60, 2).EdgesOnce(func(u, v graph.V) { b.AddEdge(u, v) })
	g := b.Build()
	p := NewPipeline(g, 4)
	res := p.MaximalCliques(false)
	if res.Count == 0 || len(res.Largest) < 6 {
		t.Fatalf("%d maximal cliques, the largest %v; want the planted K6", res.Count, res.Largest)
	}
	truss := p.KTrussCommunity(5)
	if len(truss) < 6 {
		t.Fatalf("5-truss has %d vertices", len(truss))
	}
	motifs := p.MotifCounts(3)
	tri := mining.CanonicalCode(gen.Clique(3), []graph.V{0, 1, 2})
	if motifs[tri] == 0 {
		t.Fatal("no triangles found")
	}
	if n := p.CountPattern(gen.Clique(3)); n != motifs[tri] {
		t.Fatalf("pattern count %d vs motif count %d", n, motifs[tri])
	}
}

func TestPath4GraphClassification(t *testing.T) {
	db := gen.MoleculeDB(60, 8, 3, 0.95, 21)
	rng := rand.New(rand.NewSource(1))
	trainMask := make([]bool, db.Len())
	for i := range trainMask {
		trainMask[i] = rng.Float64() < 0.6
	}
	acc := GraphClassification(db, trainMask, 8, 3, 4, 2)
	if acc < 0.7 {
		t.Fatalf("graph classification accuracy %.3f (motif should be discriminative)", acc)
	}
}

func TestPatternFeaturesRespectLabels(t *testing.T) {
	// two transactions: one has an A-A edge, the other A-B
	db := &graph.TransactionDB{}
	mk := func(l0, l1 int32) *graph.Graph {
		b := graph.NewBuilder(2, false)
		b.SetLabel(0, l0)
		b.SetLabel(1, l1)
		b.AddLabeledEdge(0, 1, 1)
		return b.Build()
	}
	db.Add(mk(1, 1), 0)
	db.Add(mk(1, 2), 1)
	// mine with minSup 1 to get both patterns, then featurise
	allPats := fsm.MineTransactions(db, fsm.MineConfig{MinSupport: 1})
	x := PatternFeatures(db, allPats, 2)
	if x.Rows != 2 || x.Cols != len(allPats) {
		t.Fatal("feature shape")
	}
	// rows must differ (different patterns occur)
	same := true
	for j := 0; j < x.Cols; j++ {
		if x.At(0, j) != x.At(1, j) {
			same = false
		}
	}
	if same {
		t.Fatal("pattern features identical for different graphs")
	}
}

func TestLogRegSeparable(t *testing.T) {
	x := tensor.FromRows([][]float32{{1, 0}, {0.9, 0.1}, {0, 1}, {0.1, 0.9}})
	labels := []int{0, 0, 1, 1}
	clf := TrainLogReg(x, labels, 300, 0.1, 1)
	if acc := clf.Accuracy(x, labels, nil); acc != 1 {
		t.Fatalf("logreg separable accuracy %f", acc)
	}
}
