package gnn

import (
	"math/rand"

	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// Whole-graph classification with a GNN (the deep-learning alternative to
// frequent-pattern features on Figure 1's path 4): per-graph GIN layers with
// shared weights, mean-pool readout, and a dense classification head.

// GraphClassConfig configures GNN graph classification.
type GraphClassConfig struct {
	Kind   ModelKind // GIN recommended (most expressive sum aggregator)
	Hidden int
	Epochs int
	LR     float64
	Seed   int64
}

func (c *GraphClassConfig) defaults() {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
}

// GraphClassifier classifies whole graphs: one model, rebound to each graph
// it runs, and a readout head.
type GraphClassifier struct {
	inDim   int
	model   *Model
	readout *nn.Dense
}

// oneHotFeatures encodes vertex labels as one-hot rows of width inDim.
func oneHotFeatures(g *graph.Graph, inDim int) *tensor.Matrix {
	x := tensor.New(g.NumVertices(), inDim)
	for v := 0; v < g.NumVertices(); v++ {
		l := int(g.Label(graph.V(v)))
		if l < inDim {
			x.Set(v, l, 1)
		}
	}
	return x
}

// TrainGraphClassifier trains a GNN whole-graph classifier on the
// transactions with trainMask true and returns the classifier. Vertex
// features are one-hot vertex labels.
func TrainGraphClassifier(db *graph.TransactionDB, trainMask []bool, cfg GraphClassConfig) *GraphClassifier {
	cfg.defaults()
	var maxLabel int32
	classes := 0
	for i, g := range db.Graphs {
		if g.MaxLabel() > maxLabel {
			maxLabel = g.MaxLabel()
		}
		if db.Class[i]+1 > classes {
			classes = db.Class[i] + 1
		}
	}
	inDim := int(maxLabel) + 1
	gc := &GraphClassifier{
		inDim:   inDim,
		model:   NewModel(nil, cfg.Kind, []int{inDim, cfg.Hidden, cfg.Hidden}, cfg.Seed),
		readout: nn.NewDense(cfg.Hidden, classes, cfg.Seed+999),
	}
	params := append(gc.model.Params(), gc.readout.Params()...)
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var trainIdx []int
	for i, m := range trainMask {
		if m {
			trainIdx = append(trainIdx, i)
		}
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := rng.Perm(len(trainIdx))
		for _, pi := range perm {
			i := trainIdx[pi]
			g := db.Graphs[i]
			if g.NumVertices() == 0 {
				continue
			}
			gc.model.Rebind(g)
			h := gc.model.Forward(oneHotFeatures(g, inDim))
			logits := gc.readout.Forward(pool(h, 1/float32(h.Rows)))
			_, dLogits := nn.SoftmaxCrossEntropy(logits, []int{db.Class[i]})
			dPooled := gc.readout.Backward(dLogits)
			gc.model.Backward(poolBackward(dPooled, h.Rows, 1/float32(h.Rows)))
			opt.Step(params)
		}
	}
	return gc
}

// Predict returns the predicted class of g. It rebinds the classifier's
// model to g, so calls must not run concurrently.
func (gc *GraphClassifier) Predict(g *graph.Graph) int {
	if g.NumVertices() == 0 {
		return 0
	}
	gc.model.Rebind(g)
	h := gc.model.Forward(oneHotFeatures(g, gc.inDim))
	logits := gc.readout.Forward(pool(h, 1/float32(h.Rows)))
	row := logits.Row(0)
	arg := 0
	for j, v := range row {
		if v > row[arg] {
			arg = j
		}
	}
	return arg
}

// Accuracy evaluates on transactions with mask true (nil = all).
func (gc *GraphClassifier) Accuracy(db *graph.TransactionDB, mask []bool) float64 {
	correct, total := 0, 0
	for i, g := range db.Graphs {
		if mask != nil && !mask[i] {
			continue
		}
		if gc.Predict(g) == db.Class[i] {
			correct++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// pool sums all rows of h into a 1×d matrix scaled by scale: 1/rows is the
// graph classifier's mean readout, 1 the neural counter's sum readout.
func pool(h *tensor.Matrix, scale float32) *tensor.Matrix {
	out := tensor.New(1, h.Cols)
	or := out.Row(0)
	for i := 0; i < h.Rows; i++ {
		for j, v := range h.Row(i) {
			or[j] += v
		}
	}
	for j := range or {
		or[j] *= scale
	}
	return out
}

// poolBackward is pool's adjoint: it broadcasts the pooled gradient, scaled
// by scale, back to every one of rows rows.
func poolBackward(dPooled *tensor.Matrix, rows int, scale float32) *tensor.Matrix {
	out := tensor.New(rows, dPooled.Cols)
	dr := dPooled.Row(0)
	for i := 0; i < rows; i++ {
		r := out.Row(i)
		for j := range r {
			r[j] = dr[j] * scale
		}
	}
	return out
}
