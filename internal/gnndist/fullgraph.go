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
// The entries are gnn.NewNormAdj's CSR (neighbors in graph order, self-loop
// last) with a per-entry remote flag beside them. apply owns its output
// rows, so it runs in parallel with results bitwise identical at any worker
// count.
type delayedAdj struct {
	n      int
	rowPtr []int32
	col    []graph.V
	wts    []float32
	remote []bool // aligned with col: true if the edge crosses partitions

	// sends[o*k+p] counts the rows owned by partition o that partition p ≠ o
	// reads through a remote entry: what one snapshot refresh ships.
	k     int
	sends []int64
}

func newDelayedAdj(g *graph.Graph, part *partition.Partition) *delayedAdj {
	n, k := g.NumVertices(), part.K
	a := &delayedAdj{n: n, k: k, sends: make([]int64, k*k)}
	a.rowPtr, a.col, a.wts = gnn.NewNormAdj(g).CSR()
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

// exchange meters one snapshot refresh of width-column rows: each owner
// ships every row a reader partition needs once, in one batch per pair.
func (a *delayedAdj) exchange(net *cluster.Network, width int) {
	for i, rows := range a.sends {
		if rows > 0 {
			net.AccountBatch(i/a.k, i%a.k, rows, rows*int64(width)*4)
		}
	}
}

// staleRows returns the rows that remote entries read this epoch: cur itself
// when there is no owned snapshot (RefreshEvery 1), else snap, refreshed
// from cur first on a refresh epoch.
func staleRows(snap, cur *tensor.Matrix, refresh bool) *tensor.Matrix {
	if snap == nil {
		return cur
	}
	if refresh {
		copy(snap.Data, cur.Data)
	}
	return snap
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

	lin1 := nn.NewDense(task.X.Cols, cfg.Hidden, cfg.Seed)
	lin2 := nn.NewDense(cfg.Hidden, task.NumClasses, cfg.Seed+101)
	relu := &nn.ReLU{}
	opt := nn.NewAdam(cfg.LR)
	params := append(lin1.Params(), lin2.Params()...)

	masked := make([]int, len(task.Labels))
	for i, l := range task.Labels {
		if !task.TrainMask[i] {
			masked[i] = -1
		} else {
			masked[i] = l
		}
	}
	// X is static, so layer 1's aggregation (and its exchange) happens once.
	n := task.G.NumVertices()
	agg0 := tensor.New(n, task.X.Cols)
	adj.apply(task.X, task.X, agg0)
	// agg1 also holds dH1: lin2.Backward has read agg1 before dH1 is written.
	agg1 := tensor.New(n, cfg.Hidden)
	// Owned activation and gradient snapshots, past RefreshEvery 1.
	var snapH, snapD *tensor.Matrix
	if cfg.RefreshEvery > 1 {
		snapH, snapD = tensor.New(n, cfg.Hidden), tensor.New(n, cfg.Hidden)
	}
	dLogits := tensor.New(n, task.NumClasses)
	var res DistGNNResult
	for ep := 0; ep < cfg.Epochs; ep++ {
		refresh := ep%cfg.RefreshEvery == 0
		if refresh {
			res.Refreshes++
			// a refresh ships both snapshots: the activations and, after
			// the forward, their gradients
			adj.exchange(net, cfg.Hidden)
			adj.exchange(net, cfg.Hidden)
		}
		h1 := relu.Forward(lin1.Forward(agg0))
		adj.apply(h1, staleRows(snapH, h1, refresh), agg1)
		logits := lin2.Forward(agg1)
		nn.SoftmaxCrossEntropyInto(logits, masked, dLogits)
		dAgg1 := lin2.Backward(dLogits)
		dH1 := agg1
		adj.apply(dAgg1, staleRows(snapD, dAgg1, refresh), dH1)
		lin1.BackwardParams(relu.Backward(dH1))
		opt.Step(params)
	}
	// Evaluate the trained model: fresh layer-1 rows over every edge.
	h1 := relu.Forward(lin1.Forward(agg0))
	adj.exchange(net, cfg.Hidden)
	adj.apply(h1, h1, agg1)
	logits := lin2.Forward(agg1)
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

// OffloadedGCNForward computes a 2-layer GCN forward pass chunk by chunk:
// for each layer, only `chunkRows` rows of activations are resident on the
// "device" at a time, with inputs streamed from host memory. It is
// gnn.Model.Infer with chunkRows as the row tile, so the logits are bitwise
// the monolithic forward's; the stats, which follow from the tile geometry,
// expose HongTu's trade: bounded device memory for extra host traffic.
func OffloadedGCNForward(g *graph.Graph, x *tensor.Matrix, lin1W, lin1B, lin2W, lin2B *tensor.Matrix, chunkRows int) (*tensor.Matrix, OffloadStats) {
	n := g.NumVertices()
	dims := []int{x.Cols, lin1W.Cols, lin2W.Cols}
	m := gnn.NewModel(g, gnn.GCN, dims, 0)
	params := m.Params()
	for i, w := range []*tensor.Matrix{lin1W, lin1B, lin2W, lin2B} {
		copy(params[i].W.Data, w.Data)
	}
	st := OffloadStats{FullGraphFloats: int64(n) * int64(x.Cols+lin1W.Cols+lin2W.Cols)}
	for l := 0; l+1 < len(dims); l++ {
		// the device holds a tile of aggregated inputs and one of outputs;
		// every input row streams in and every output row goes back once
		st.DevicePeakFloats = max(st.DevicePeakFloats, int64(min(chunkRows, n))*int64(dims[l]+dims[l+1]))
		st.HostTransferred += int64(n) * int64(dims[l]+dims[l+1])
	}
	return m.Infer(x, chunkRows), st
}
