package gnn

import (
	"fmt"

	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// ModelKind selects the GNN architecture.
type ModelKind int

// Supported architectures.
const (
	GCN ModelKind = iota
	SAGE
	GAT
	GIN
)

func (k ModelKind) String() string {
	switch k {
	case GCN:
		return "GCN"
	case SAGE:
		return "GraphSAGE"
	case GAT:
		return "GAT"
	case GIN:
		return "GIN"
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// Model is a stack of graph-convolution layers over one graph.
type Model struct {
	Kind   ModelKind
	Layers []Layer
}

// NewModel builds a model with the given layer widths (dims[0] = input
// feature dim, dims[len-1] = number of classes).
func NewModel(g *graph.Graph, kind ModelKind, dims []int, seed int64) *Model {
	if len(dims) < 2 {
		//lint:allow panicpolicy architecture literals are fixed at call sites; an invalid dims slice is a programmer error at construction
		panic("gnn: need at least input and output dims")
	}
	// The graph operator is read-only after construction, so every layer of
	// the model shares one.
	var newLayer func(in, out int, last bool, seed int64) Layer
	switch kind {
	case GCN:
		adj := NewNormAdj(g)
		newLayer = func(in, out int, last bool, seed int64) Layer { return newGCNLayer(adj, in, out, last, seed) }
	case SAGE:
		agg := NewMeanAgg(g)
		newLayer = func(in, out int, last bool, seed int64) Layer { return newSAGELayer(agg, in, out, last, seed) }
	case GAT:
		adj := newGATAdj(g)
		newLayer = func(in, out int, last bool, seed int64) Layer { return newGATLayer(adj, in, out, last, seed) }
	case GIN:
		agg := NewSumAgg(g)
		newLayer = func(in, out int, last bool, seed int64) Layer { return newGINLayer(agg, in, out, last, seed) }
	default:
		//lint:allow panicpolicy ModelKind is a closed enum; an unknown value is a programmer error at construction
		panic("gnn: unknown model kind")
	}
	m := &Model{Kind: kind}
	for i := 0; i < len(dims)-1; i++ {
		m.Layers = append(m.Layers, newLayer(dims[i], dims[i+1], i == len(dims)-2, seed+int64(i)*101))
	}
	return m
}

// Forward runs all layers.
func (m *Model) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h)
	}
	return h
}

// Backward propagates the logits gradient through all layers.
func (m *Model) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var out []*nn.Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// TrainConfig controls full-graph training.
type TrainConfig struct {
	Epochs int
	LR     float64
	Seed   int64
}

// TrainResult records training progress.
type TrainResult struct {
	Losses   []float64
	TrainAcc float64
	TestAcc  float64
}

// TrainFullGraph trains the model with full-graph gradient descent (the
// DistGNN/HongTu/Sancus regime): every epoch computes the loss over all
// vertices with trainMask using the complete (unsampled) neighborhood.
// labels[i] < 0 marks unlabeled vertices.
func TrainFullGraph(m *Model, x *tensor.Matrix, labels []int, trainMask, testMask []bool, cfg TrainConfig) TrainResult {
	if cfg.Epochs == 0 {
		cfg.Epochs = 100
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	opt := nn.NewAdam(cfg.LR)
	masked := make([]int, len(labels))
	for i, l := range labels {
		if trainMask != nil && !trainMask[i] {
			masked[i] = -1
		} else {
			masked[i] = l
		}
	}
	var res TrainResult
	for ep := 0; ep < cfg.Epochs; ep++ {
		logits := m.Forward(x)
		loss, dLogits := nn.SoftmaxCrossEntropy(logits, masked)
		res.Losses = append(res.Losses, loss)
		m.Backward(dLogits)
		opt.Step(m.Params())
	}
	logits := m.Forward(x)
	res.TrainAcc = nn.Accuracy(logits, labels, trainMask)
	res.TestAcc = nn.Accuracy(logits, labels, testMask)
	return res
}
