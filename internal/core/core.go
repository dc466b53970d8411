// Package core is the public face of the library: it wires the engines of
// this repository into the four-path graph analytics + machine learning
// pipeline of the paper's Figure 1:
//
//	Path 1 — Vertex Analytics:              per-vertex scores and labels
//	         (PageRank, connected components).
//	Path 2 — Vertex Analytics + ML:         vertex embeddings (DeepWalk)
//	         or classic structural features, feeding a node classifier
//	         (logistic regression or a GNN).
//	Path 3 — Structure Analytics:           subgraph structures (maximal
//	         cliques, k-truss communities, motifs, pattern counts).
//	Path 4 — Structure Analytics + ML:      frequent-pattern features for
//	         whole-graph classification (the biochemistry workload).
//
// Each method delegates to the specialised engine package, so a pipeline
// user gets TLAV, think-like-a-task, mining, matching, FSM, embedding and
// GNN machinery behind one façade.
package core

import (
	"graphsys/internal/embed"
	"graphsys/internal/fsm"
	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/match"
	"graphsys/internal/mining"
	"graphsys/internal/pregel"
	"graphsys/internal/tensor"
	"graphsys/internal/tthinker"
)

// Pipeline is a handle over one data graph.
type Pipeline struct {
	G       *graph.Graph
	Workers int
}

// NewPipeline creates a pipeline over g.
func NewPipeline(g *graph.Graph, workers int) *Pipeline {
	if workers <= 0 {
		workers = 4
	}
	return &Pipeline{G: g, Workers: workers}
}

// ---------- Path 1: vertex analytics ----------

// PageRank returns damped PageRank scores (TLAV engine).
func (p *Pipeline) PageRank(iters int) []float64 {
	scores, _, _ := pregel.PageRank(p.G, iters, pregel.Config{Workers: p.Workers})
	return scores
}

// ConnectedComponents returns per-vertex component labels (HashMin).
func (p *Pipeline) ConnectedComponents() []int32 {
	labels, _, _ := pregel.HashMinCC(p.G, pregel.Config{Workers: p.Workers})
	return labels
}

// ---------- Path 2: vertex analytics + ML ----------

// DeepWalkEmbeddings learns topology embeddings.
func (p *Pipeline) DeepWalkEmbeddings(dim int, seed int64) *tensor.Matrix {
	return embed.DeepWalk(p.G, 6, 20, embed.SkipGramConfig{Dim: dim, Epochs: 3, Seed: seed})
}

// StructuralFeatureMatrix returns the classic structural features (degree,
// log-degree, clustering coefficient, core number, triangle count) as a
// feature matrix — the baseline Stolman et al. found to beat embeddings for
// community labeling.
func (p *Pipeline) StructuralFeatureMatrix() *tensor.Matrix {
	f := graph.ComputeStructuralFeatures(p.G)
	return tensor.FromRows(f.Matrix())
}

// TrainNodeClassifier fits logistic regression on per-vertex features; rows
// with label < 0 or trainMask false are excluded from training.
func (p *Pipeline) TrainNodeClassifier(x *tensor.Matrix, labels []int, trainMask []bool, seed int64) *LogisticRegression {
	masked := make([]int, len(labels))
	for i, l := range labels {
		if trainMask != nil && !trainMask[i] {
			masked[i] = -1
		} else {
			masked[i] = l
		}
	}
	return TrainLogReg(x, masked, 150, 0.05, seed)
}

// TrainGNN trains a GNN node classifier full-graph and returns test accuracy.
func (p *Pipeline) TrainGNN(task *gnn.Task, kind gnn.ModelKind, hidden, epochs int, seed int64) float64 {
	m := gnn.NewModel(task.G, kind, []int{task.X.Cols, hidden, task.NumClasses}, seed)
	res := gnn.TrainFullGraph(m, task.X, task.Labels, task.TrainMask, task.TestMask,
		gnn.TrainConfig{Epochs: epochs, LR: 0.02})
	return res.TestAcc
}

// ---------- Path 3: structure analytics ----------

// MaximalCliques enumerates maximal cliques (task engine, budget-split tasks).
func (p *Pipeline) MaximalCliques(collect bool) tthinker.CliqueResult {
	res, _ := tthinker.MaximalCliques(p.G, collect, tthinker.Config{Workers: p.Workers, Budget: 256})
	return res
}

// KTrussCommunity returns the vertices of the maximal k-truss.
func (p *Pipeline) KTrussCommunity(k int32) []graph.V {
	return tthinker.KTrussSubgraph(p.G, k)
}

// MotifCounts counts size-k graphlets (BFS-extension mining engine).
func (p *Pipeline) MotifCounts(k int) map[string]int64 {
	counts, _ := mining.MotifCounts(p.G, k, mining.Config{Workers: p.Workers})
	return counts
}

// CountPattern counts matches of a pattern (compiled matching plan).
func (p *Pipeline) CountPattern(pattern *graph.Graph) int64 {
	n, _ := match.Count(p.G, match.OptimizedPlan(pattern), p.Workers)
	return n
}

// ---------- Path 4: structure analytics + ML (transactional) ----------

// PatternFeatures builds a binary feature matrix for a transaction database:
// column j of row i is 1 iff mined pattern j occurs in transaction i
// (subgraph-isomorphism test with vertex and edge labels).
func PatternFeatures(db *graph.TransactionDB, patterns []fsm.Pattern, workers int) *tensor.Matrix {
	x := tensor.New(db.Len(), len(patterns))
	plans := make([]*match.Plan, len(patterns))
	for j, pat := range patterns {
		plans[j] = match.OptimizedPlan(pat.Graph())
	}
	for i, g := range db.Graphs {
		for j := range patterns {
			found := false
			match.Enumerate(g, plans[j], workers, func(m []graph.V) bool {
				found = true
				return false // stop at first occurrence
			}, nil)
			if found {
				x.Set(i, j, 1)
			}
		}
	}
	return x
}

// GraphClassification runs the full Figure-1 path 4: mine frequent patterns
// from the training split of db, featurise all transactions by pattern
// occurrence, train a classifier, and return test accuracy.
func GraphClassification(db *graph.TransactionDB, trainMask []bool, minSup, maxEdges, workers int, seed int64) float64 {
	trainDB := &graph.TransactionDB{}
	for i, g := range db.Graphs {
		if trainMask[i] {
			trainDB.Add(g, db.Class[i])
		}
	}
	patterns := fsm.MineTransactions(trainDB, fsm.MineConfig{MinSupport: minSup, MaxEdges: maxEdges, Workers: workers})
	if len(patterns) == 0 {
		return 0
	}
	x := PatternFeatures(db, patterns, workers)
	labels := make([]int, db.Len())
	masked := make([]int, db.Len())
	testMask := make([]bool, db.Len())
	for i := range labels {
		labels[i] = db.Class[i]
		if trainMask[i] {
			masked[i] = db.Class[i]
		} else {
			masked[i] = -1
			testMask[i] = true
		}
	}
	clf := TrainLogReg(x, masked, 200, 0.05, seed)
	return clf.Accuracy(x, labels, testMask)
}
