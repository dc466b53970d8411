package gnn

import (
	"math"
	"math/rand"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/tensor"
)

func TestGradCheckGIN(t *testing.T) { gradCheck(t, testGraph(), GIN, twoLayers) }

func TestGINDistinguishesMultisets(t *testing.T) {
	// GIN's sum aggregation separates a degree-2 vertex with neighbors
	// {a, a} from one with {a}: the mean aggregator cannot.
	b1 := graph.NewBuilder(3, false)
	b1.AddEdge(0, 1)
	b1.AddEdge(0, 2)
	star := b1.Build() // center has 2 identical-feature neighbors
	b2 := graph.NewBuilder(2, false)
	b2.AddEdge(0, 1)
	edge := b2.Build() // center has 1

	x1 := tensor.FromRows([][]float32{{1}, {1}, {1}})
	x2 := tensor.FromRows([][]float32{{1}, {1}})

	gin1 := NewSumAgg(star).Apply(x1)
	gin2 := NewSumAgg(edge).Apply(x2)
	if gin1.At(0, 0) == gin2.At(0, 0) {
		t.Fatal("sum aggregation should distinguish neighbor multisets")
	}
	mean1 := NewMeanAgg(star).Apply(x1)
	mean2 := NewMeanAgg(edge).Apply(x2)
	if mean1.At(0, 0) != mean2.At(0, 0) {
		t.Fatal("mean aggregation collapses them (the GIN motivation)")
	}
}

// checkPool checks pool's value on h at the given scale and its adjoint
// property <pool(h), y> == <h, poolBackward(y)> within tol.
func checkPool(t *testing.T, h, y *tensor.Matrix, scale float32, want []float32, tol float64) {
	t.Helper()
	p := pool(h, scale)
	if p.At(0, 0) != want[0] || p.At(0, 1) != want[1] {
		t.Fatalf("scale %v: pool = %v, want %v", scale, p.Data, want)
	}
	back := poolBackward(y, h.Rows, scale)
	var lhs, rhs float64
	for j := 0; j < h.Cols; j++ {
		lhs += float64(p.At(0, j)) * float64(y.At(0, j))
	}
	for i := 0; i < h.Rows; i++ {
		for j := 0; j < h.Cols; j++ {
			rhs += float64(h.At(i, j)) * float64(back.At(i, j))
		}
	}
	if math.Abs(lhs-rhs) > tol {
		t.Fatalf("scale %v: pool adjoint violated: %v vs %v", scale, lhs, rhs)
	}
}

// TestMeanPoolRoundTrip checks the mean readout (scale 1/rows).
func TestMeanPoolRoundTrip(t *testing.T) {
	h := tensor.FromRows([][]float32{{2, 4}, {4, 8}})
	y := tensor.FromRows([][]float32{{1, 2}})
	checkPool(t, h, y, 1.0/float32(h.Rows), []float32{3, 6}, 1e-6)
}

// TestSumPoolAdjoint checks the sum readout (scale 1), whose adjoint is exact.
func TestSumPoolAdjoint(t *testing.T) {
	h := tensor.FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	y := tensor.FromRows([][]float32{{2, -1}})
	checkPool(t, h, y, 1, []float32{9, 12}, 0)
}

func TestGraphClassifierLearnsMotif(t *testing.T) {
	db := gen.MoleculeDB(80, 8, 3, 0.95, 31)
	rng := rand.New(rand.NewSource(2))
	trainMask := make([]bool, db.Len())
	testMask := make([]bool, db.Len())
	for i := range trainMask {
		if rng.Float64() < 0.6 {
			trainMask[i] = true
		} else {
			testMask[i] = true
		}
	}
	gc := TrainGraphClassifier(db, trainMask, GraphClassConfig{Kind: GIN, Hidden: 16, Epochs: 20, LR: 0.01, Seed: 1})
	acc := gc.Accuracy(db, testMask)
	if acc < 0.75 {
		t.Fatalf("GIN graph classification accuracy %.3f", acc)
	}
	// train accuracy should be at least as informative
	if tr := gc.Accuracy(db, trainMask); tr < acc-0.15 {
		t.Fatalf("train %.3f far below test %.3f", tr, acc)
	}
}

func TestGraphClassifierGCNKindAlsoWorks(t *testing.T) {
	db := gen.MoleculeDB(60, 8, 3, 0.95, 33)
	trainMask := make([]bool, db.Len())
	for i := range trainMask {
		trainMask[i] = i%4 < 2 // half of each class (class = i%2)
	}
	gc := TrainGraphClassifier(db, trainMask, GraphClassConfig{Kind: GCN, Hidden: 16, Epochs: 40, LR: 0.02, Seed: 2})
	if acc := gc.Accuracy(db, nil); acc < 0.6 {
		t.Fatalf("GCN graph classifier accuracy %.3f", acc)
	}
}

func TestGINNodeClassification(t *testing.T) {
	task := SyntheticCommunityTask(150, 3, 2, 0.3, 9)
	m := NewModel(task.G, GIN, []int{task.X.Cols, 16, 3}, 4)
	res := TrainFullGraph(m, task.X, task.Labels, task.TrainMask, task.TestMask,
		TrainConfig{Epochs: 60, LR: 0.01})
	if res.TestAcc < 0.8 {
		t.Fatalf("GIN node classification accuracy %.3f", res.TestAcc)
	}
}

func TestGraphRegressorLearnsTriangleDensity(t *testing.T) {
	// graphs with varying triangle counts; targets = triangles / 10
	rng := rand.New(rand.NewSource(5))
	var graphs []*graph.Graph
	var targets []float64
	for i := 0; i < 60; i++ {
		n := 12 + rng.Intn(8)
		m := int64(n + rng.Intn(3*n))
		g := gen.ErdosRenyi(n, m, int64(i))
		graphs = append(graphs, g)
		targets = append(targets, float64(graph.TriangleCount(g))/10)
	}
	trainMask := make([]bool, len(graphs))
	for i := range trainMask {
		trainMask[i] = i%3 != 0
	}
	r := TrainGraphRegressor(graphs, targets, trainMask, RegressConfig{Hidden: 16, Epochs: 60, LR: 0.005, Seed: 1})
	// compare test MSE against the mean-predictor baseline
	var mean float64
	nTrain := 0
	for i, m := range trainMask {
		if m {
			mean += targets[i]
			nTrain++
		}
	}
	mean /= float64(nTrain)
	var mseModel, mseBase float64
	nTest := 0
	for i, m := range trainMask {
		if m {
			continue
		}
		p := r.Predict(graphs[i])
		mseModel += (p - targets[i]) * (p - targets[i])
		mseBase += (mean - targets[i]) * (mean - targets[i])
		nTest++
	}
	mseModel /= float64(nTest)
	mseBase /= float64(nTest)
	if mseModel >= mseBase*0.6 {
		t.Fatalf("neural counter MSE %.4f not well below mean-baseline %.4f", mseModel, mseBase)
	}
}
