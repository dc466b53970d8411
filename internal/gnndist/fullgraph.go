package gnndist

import (
	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/graph"
	"graphsys/internal/nn"
	"graphsys/internal/partition"
	"graphsys/internal/tensor"
)

// ---- DistGNN: full-graph training with delayed remote aggregates ----

// delayedAdj is a GCN normalised adjacency split by a vertex partition:
// apply combines FRESH rows over same-partition entries with a STALE
// snapshot over cross-partition entries — DistGNN's delayed-update
// communication avoidance, where remote partial aggregates are refreshed
// only every few epochs. Â is symmetric, so apply is the backward too, over
// gradient rows with a gradient snapshot as the stale side.
//
// The entries are norm's CSR (neighbors in graph order, self-loop last) with
// a per-entry remote flag beside them. apply owns its output rows, so it
// runs in parallel with results bitwise identical at any worker count.
type delayedAdj struct {
	norm   *gnn.Agg // Â itself: the fresh operator, built once per run
	n      int
	rowPtr []int32
	col    []graph.V
	wts    []float32
	remote []bool // aligned with col: true if the edge crosses partitions

	// sends[o*k+p] counts the rows owned by partition o that partition p ≠ o
	// reads through a remote entry: what one snapshot refresh ships.
	k     int
	sends []int64

	// ApplyInto's stale side: snap, first refreshed from the rows it is
	// given when refresh is set, or those rows themselves when snap is nil.
	snap    *tensor.Matrix
	refresh bool
}

func newDelayedAdj(g *graph.Graph, part *partition.Partition) *delayedAdj {
	n, k := g.NumVertices(), part.K
	a := &delayedAdj{norm: gnn.NewNormAdj(g), n: n, k: k, sends: make([]int64, k*k)}
	a.rowPtr, a.col, a.wts = a.norm.CSR()
	a.remote = make([]bool, len(a.col))
	// Â is symmetric, so the partitions that read row v are those of v's
	// remote entries; counted[p] == v+1 once p is counted for v.
	counted := make([]int, k)
	for v := 0; v < n; v++ {
		owner := part.Assign[v]
		for idx := a.rowPtr[v]; idx < a.rowPtr[v+1]; idx++ {
			p := part.Assign[a.col[idx]]
			a.remote[idx] = p != owner
			if a.remote[idx] && counted[p] != v+1 {
				counted[p] = v + 1
				a.sends[owner*k+p]++
			}
		}
	}
	return a
}

// apply computes out = Â·H (fully overwritten) using fresh rows for local
// edges and stale rows for remote edges.
func (a *delayedAdj) apply(fresh, stale, out *tensor.Matrix) {
	tensor.ParallelFor(a.n, int64(len(a.col))*int64(fresh.Cols), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s, e := a.rowPtr[v], a.rowPtr[v+1]
			gnn.SpMMRow(out.Row(v), a.col[s:e], a.wts[s:e], fresh, stale, a.remote[s:e])
		}
	})
}

// ApplyInto is the gnn.Propagation of DistGNN's second GCN layer: apply with
// h as the fresh rows and the snapshot as the stale ones.
func (a *delayedAdj) ApplyInto(h, out *tensor.Matrix) {
	stale := h
	if a.snap != nil {
		if a.refresh {
			copy(a.snap.Data, h.Data)
		}
		stale = a.snap
	}
	a.apply(h, stale, out)
}

// ApplyTInto is ApplyInto: DistGNN's graphs are undirected, so Â is
// symmetric and is its own adjoint.
func (a *delayedAdj) ApplyTInto(dy, out *tensor.Matrix) { a.ApplyInto(dy, out) }

// exchange meters one snapshot refresh of width-column rows: each owner
// ships every row a reader partition needs once, in one batch per pair.
func (a *delayedAdj) exchange(net *cluster.Network, width int) {
	for i, rows := range a.sends {
		if rows > 0 {
			net.AccountBatch(i/a.k, i%a.k, rows, rows*int64(width)*4)
		}
	}
}

// DistGNNConfig configures delayed-update full-graph training.
type DistGNNConfig struct {
	Workers      int
	Part         *partition.Partition
	Hidden       int
	Epochs       int
	LR           float64
	RefreshEvery int // epochs between remote-aggregate refreshes (1 = sync)
	Seed         int64
}

// DistGNNResult reports a delayed-update run.
type DistGNNResult struct {
	TestAcc   float64 // of the trained model, evaluated after the last epoch
	Loss      float64 // that evaluation's cross-entropy over labeled vertices
	Refreshes int64   // snapshot refreshes during training
	Net       cluster.Stats
}

// TrainDistGNN trains a 2-layer GCN full-graph with DistGNN's delayed
// updates: cross-partition edges read a snapshot of the remote rows, taken
// (and metered) every RefreshEvery epochs — layer-1 activations in the
// forward, their gradients in the backward. At RefreshEvery 1 the snapshots
// are the current rows, and training is a serial GCN's bit for bit. After
// the last epoch it evaluates the trained model with one more forward over
// fresh layer-1 rows on every edge, as gnn.TrainFullGraph does; that
// forward's exchange is metered in Net like a refresh's but is not counted
// in Refreshes.
func TrainDistGNN(task *gnn.Task, cfg DistGNNConfig) DistGNNResult {
	res, _ := trainDistGNN(task, cfg)
	return res
}

// trainDistGNN is TrainDistGNN that also returns the evaluation's logits.
func trainDistGNN(task *gnn.Task, cfg DistGNNConfig) (DistGNNResult, *tensor.Matrix) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Part == nil {
		cfg.Part = partition.Metis(task.G, cfg.Workers)
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 16
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	if cfg.LR == 0 {
		cfg.LR = 0.02
	}
	if cfg.RefreshEvery <= 0 {
		cfg.RefreshEvery = 1
	}
	net := cluster.New(cfg.Workers).Network()
	adj := newDelayedAdj(task.G, cfg.Part)
	// gnn's GCN with Â under layer 1 and the delayed aggregation under
	// layer 2. X is static, so layer 1's aggregation happens once.
	m := gnn.NewModel(nil, gnn.GCN, []int{task.X.Cols, cfg.Hidden, task.NumClasses}, cfg.Seed)
	m.Layers[0].(*gnn.GCNLayer).Adj = adj.norm
	m.Layers[1].(*gnn.GCNLayer).Adj = adj
	m.FixInput(task.X)
	params := m.Params()
	opt := nn.NewAdam(cfg.LR)

	masked := make([]int, len(task.Labels))
	for i, l := range task.Labels {
		if !task.TrainMask[i] {
			masked[i] = -1
		} else {
			masked[i] = l
		}
	}
	// Owned activation and gradient snapshots, past RefreshEvery 1.
	n := task.G.NumVertices()
	var snapH, snapD *tensor.Matrix
	if cfg.RefreshEvery > 1 {
		snapH, snapD = tensor.New(n, cfg.Hidden), tensor.New(n, cfg.Hidden)
	}
	dLogits := tensor.New(n, task.NumClasses)
	var res DistGNNResult
	for ep := 0; ep < cfg.Epochs; ep++ {
		adj.refresh = ep%cfg.RefreshEvery == 0
		if adj.refresh {
			res.Refreshes++
			// a refresh ships both snapshots: the activations and, after
			// the forward, their gradients
			adj.exchange(net, cfg.Hidden)
			adj.exchange(net, cfg.Hidden)
		}
		adj.snap = snapH
		nn.SoftmaxCrossEntropyInto(m.Forward(task.X), masked, dLogits)
		adj.snap = snapD
		m.Backward(dLogits)
		opt.Step(params)
	}
	// Evaluate the trained model: fresh layer-1 rows over every edge.
	adj.snap = nil
	adj.exchange(net, cfg.Hidden)
	logits := m.Forward(task.X)
	res.TestAcc = nn.Accuracy(logits, task.Labels, task.TestMask)
	res.Loss = nn.SoftmaxCrossEntropyInto(logits, task.Labels, nil)
	res.Net = net.Stats()
	return res, logits
}

// ---- HongTu: CPU-offloaded full-graph training ----

// OffloadStats reports the memory/transfer accounting of HongTu-style
// chunked execution, where vertex activations live in host memory and the
// device processes one chunk of rows at a time.
type OffloadStats struct {
	DevicePeakFloats int64 // peak device-resident floats
	HostTransferred  int64 // floats moved host<->device
	FullGraphFloats  int64 // what an all-on-device run would need resident
}

// OffloadedGCNForward runs GCN model m's forward pass chunk by chunk: for
// each layer, only `chunkRows` rows of activations are resident on the
// "device" at a time, with inputs streamed from host memory. It is
// m.Infer with chunkRows as the row tile, so the logits are bitwise the
// monolithic forward's; the stats, which follow from the tile geometry,
// expose HongTu's trade: bounded device memory for extra host traffic.
func OffloadedGCNForward(m *gnn.Model, x *tensor.Matrix, chunkRows int) (*tensor.Matrix, OffloadStats) {
	n, in := x.Rows, x.Cols
	st := OffloadStats{FullGraphFloats: int64(n) * int64(in)}
	for _, l := range m.Layers {
		out := l.Params()[0].W.Cols // the layer's dense weight is in×out
		st.FullGraphFloats += int64(n) * int64(out)
		// the device holds a tile of aggregated inputs and one of outputs;
		// every input row streams in and every output row goes back once
		st.DevicePeakFloats = max(st.DevicePeakFloats, int64(min(chunkRows, n))*int64(in+out))
		st.HostTransferred += int64(n) * int64(in+out)
		in = out
	}
	return m.Infer(x, chunkRows), st
}
