package gnn

import (
	"math/rand"

	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// Neural subgraph counting (the paper's §1 pointer to Wang et al.'s
// Wasserstein-estimator counter and Ying et al.'s neural subgraph matching):
// a GNN regressor learns to PREDICT a subgraph statistic from the graph
// itself, trading exactness for constant-time inference. GraphRegressor is
// that idea at this repository's scale: GIN layers, sum-pool readout (counts
// are extensive quantities, so sum — not mean — pooling is the right
// inductive bias), and an MSE head.

// GraphRegressor predicts one real value per graph: one GIN model, rebound
// to each graph it runs, and a readout head.
type GraphRegressor struct {
	model   *Model
	readout *nn.Dense
}

// RegressConfig configures graph-level regression training.
type RegressConfig struct {
	Hidden int
	Epochs int
	LR     float64
	Seed   int64
}

// TrainGraphRegressor fits targets[i] ≈ f(graphs[i]). Vertex features are
// the constant 1 plus the vertex degree (degree is what a counting network
// needs to see). Targets should be pre-scaled to O(1) magnitude by the
// caller for stable training.
func TrainGraphRegressor(graphs []*graph.Graph, targets []float64, trainMask []bool, cfg RegressConfig) *GraphRegressor {
	if cfg.Hidden == 0 {
		cfg.Hidden = 16
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 40
	}
	if cfg.LR == 0 {
		cfg.LR = 0.005
	}
	r := &GraphRegressor{
		model:   NewModel(nil, GIN, []int{regressInDim, cfg.Hidden, cfg.Hidden}, cfg.Seed),
		readout: nn.NewDense(cfg.Hidden, 1, cfg.Seed+99),
	}
	params := append(r.model.Params(), r.readout.Params()...)
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var idx []int
	for i, m := range trainMask {
		if m {
			idx = append(idx, i)
		}
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		for _, pi := range rng.Perm(len(idx)) {
			i := idx[pi]
			g := graphs[i]
			if g.NumVertices() == 0 {
				continue
			}
			r.model.Rebind(g)
			h := r.model.Forward(regressFeatures(g))
			pred := r.readout.Forward(pool(h, 1))
			_, dPred := nn.MSE(pred, tensor.FromRows([][]float32{{float32(targets[i])}}))
			dPooled := r.readout.Backward(dPred)
			r.model.Backward(poolBackward(dPooled, h.Rows, 1))
			opt.Step(params)
		}
	}
	return r
}

// regressInDim is the vertex feature width: the constant 1 and the degree.
const regressInDim = 2

func regressFeatures(g *graph.Graph) *tensor.Matrix {
	x := tensor.New(g.NumVertices(), regressInDim)
	for v := 0; v < g.NumVertices(); v++ {
		x.Set(v, 0, 1)
		x.Set(v, 1, float32(g.Degree(graph.V(v)))/8) // scaled degree
	}
	return x
}

// Predict returns the regressed value for g. It rebinds the regressor's
// model to g, so calls must not run concurrently.
func (r *GraphRegressor) Predict(g *graph.Graph) float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	r.model.Rebind(g)
	h := r.model.Forward(regressFeatures(g))
	return float64(r.readout.Forward(pool(h, 1)).At(0, 0))
}
