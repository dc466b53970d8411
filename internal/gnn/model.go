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
// feature dim, dims[len-1] = number of classes), bound to g. A nil g leaves
// the layers without a graph operator, for a caller that rebinds the model
// or installs its own before the first Forward.
func NewModel(g *graph.Graph, kind ModelKind, dims []int, seed int64) *Model {
	if len(dims) < 2 {
		//lint:allow panicpolicy architecture literals are fixed at call sites; an invalid dims slice is a programmer error at construction
		panic("gnn: need at least input and output dims")
	}
	var newLayer func(in, out int, last bool, seed int64) Layer
	switch kind {
	case GCN:
		newLayer = func(in, out int, last bool, seed int64) Layer {
			return &GCNLayer{denseAct: newDenseAct(in, out, last, seed)}
		}
	case SAGE:
		newLayer = func(in, out int, last bool, seed int64) Layer {
			return &SAGELayer{denseAct: newDenseAct(2*in, out, last, seed), inD: in}
		}
	case GAT:
		newLayer = func(in, out int, last bool, seed int64) Layer { return newGATLayer(in, out, last, seed) }
	case GIN:
		newLayer = func(in, out int, last bool, seed int64) Layer {
			return &GINLayer{denseAct: newDenseAct(in, out, last, seed)}
		}
	default:
		//lint:allow panicpolicy ModelKind is a closed enum; an unknown value is a programmer error at construction
		panic("gnn: unknown model kind")
	}
	m := &Model{Kind: kind}
	for i := 0; i < len(dims)-1; i++ {
		m.Layers = append(m.Layers, newLayer(dims[i], dims[i+1], i == len(dims)-2, seed+int64(i)*101))
	}
	if g != nil {
		m.Rebind(g)
	}
	return m
}

// Rebind points every layer at g: it builds the kind's graph operator for g,
// read-only and shared by all layers, and keeps the parameters and every
// layer buffer (but drops a FixInput). A sampled trainer rebinds one model
// to each minibatch's subgraph, and a graph-level trainer to each graph;
// since the buffers only grow, a graph no larger than one the model has run
// allocates none.
func (m *Model) Rebind(g *graph.Graph) {
	switch m.Kind {
	case GCN:
		adj := NewNormAdj(g)
		for _, l := range m.Layers {
			gl := l.(*GCNLayer)
			gl.Adj, gl.fixed = adj, nil
		}
	case SAGE:
		agg := NewMeanAgg(g)
		for _, l := range m.Layers {
			l.(*SAGELayer).agg = agg
		}
	case GAT:
		adj := newAgg(g, true, false)
		for _, l := range m.Layers {
			l.(*GATLayer).adj = adj
		}
	case GIN:
		agg := NewSumAgg(g)
		for _, l := range m.Layers {
			l.(*GINLayer).agg = agg
		}
	}
}

// FixInput computes a GCN first layer's Â·x into that layer's own buffer,
// once: Forward(x) then skips the aggregation while x is that same matrix,
// which must not change meanwhile. A Forward with another input, Rebind, the
// first layer's own Backward and FixInput(nil) drop the fix; Model.Backward,
// which stops at the first layer's parameters, keeps it. Full-graph training
// fixes its static features this way. For other kinds it does nothing.
func (m *Model) FixInput(x *tensor.Matrix) {
	l, ok := m.Layers[0].(*GCNLayer)
	if !ok {
		return
	}
	l.fixed = x
	if x != nil {
		l.aggregate(x)
	}
}

// Forward runs all layers.
func (m *Model) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h)
	}
	return h
}

// Backward propagates the logits gradient through all layers, accumulating
// every parameter's gradient. The first layer's input is data, so it
// computes only its parameter gradients, not the input gradient.
func (m *Model) Backward(dy *tensor.Matrix) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	m.Layers[0].BackwardParams(dy)
}

// Infer returns Forward(x)'s logits, bit for bit, in a new matrix, keeping
// no state for a backward pass and touching no layer buffer. Each GCN, SAGE
// or GIN layer runs tileRows output rows at a time (tileRows < 1: all rows):
// it aggregates a tile's rows (split across tensor.Parallelism()), then
// applies the dense transform, the bias and the activation to them, so only
// each layer's output is materialised whole. This is the evaluation forward
// over a full graph, where Forward's per-layer buffers would each be one
// graph-sized matrix more.
func (m *Model) Infer(x *tensor.Matrix, tileRows int) *tensor.Matrix {
	h := x
	for _, l := range m.Layers {
		h = l.infer(h, tileRows)
	}
	return h
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
// labels[i] < 0 marks unlabeled vertices. x is fixed (Model.FixInput) for
// the call, so a GCN aggregates it once.
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
	var dLogits *tensor.Matrix
	m.FixInput(x)
	defer m.FixInput(nil)
	for ep := 0; ep < cfg.Epochs; ep++ {
		logits := m.Forward(x)
		dLogits = tensor.Reuse(dLogits, logits.Rows, logits.Cols)
		res.Losses = append(res.Losses, nn.SoftmaxCrossEntropyInto(logits, masked, dLogits))
		m.Backward(dLogits)
		opt.Step(m.Params())
	}
	logits := m.Forward(x)
	res.TrainAcc = nn.Accuracy(logits, labels, trainMask)
	res.TestAcc = nn.Accuracy(logits, labels, testMask)
	return res
}
