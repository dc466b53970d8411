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
// only every few epochs. ApplyInto runs Â over activation rows and
// ApplyTInto Âᵀ over their gradient rows, each against its own snapshot.
//
// Direction d's entries are norm's CSR of Â (d = 0) or Âᵀ (d = 1), with a
// per-entry remote flag beside them; an undirected graph's Â is symmetric
// and both directions share one array. apply owns its output rows, so it
// runs in parallel with results bitwise identical at any worker count.
type delayedAdj struct {
	norm   *gnn.Agg  // Â itself: the fresh operator, built once per run
	remote [2][]bool // aligned with direction d's col: true if the entry crosses partitions

	// sends[d][o*k+p] counts the rows of partition o that partition p ≠ o
	// reads through direction d's remote entries: one refresh of d ships them.
	k     int
	sends [2][]int64

	// apply's stale side: snap, first refreshed from the rows it is given
	// when refresh is set, or those rows themselves when snap is nil.
	snap    *tensor.Matrix
	refresh bool
}

func newDelayedAdj(g *graph.Graph, part *partition.Partition) *delayedAdj {
	n, k := g.NumVertices(), part.K
	a := &delayedAdj{norm: gnn.NewNormAdj(g), k: k}
	// Row v of either direction lists the rows that read v through the
	// other, so the scan that flags d's remote entries counts the other
	// direction's sends; counted[p] == d*n+v+1 once p is counted for v.
	counted := make([]int, k)
	for d := range 2 {
		if d == 1 && !g.Directed() {
			a.remote[1], a.sends[0] = a.remote[0], a.sends[1]
			break
		}
		rowPtr, col, _ := a.norm.CSR(d == 1)
		a.remote[d], a.sends[1-d] = make([]bool, len(col)), make([]int64, k*k)
		for v := 0; v < n; v++ {
			owner := part.Assign[v]
			for idx := rowPtr[v]; idx < rowPtr[v+1]; idx++ {
				p := part.Assign[col[idx]]
				a.remote[d][idx] = p != owner
				if p != owner && counted[p] != d*n+v+1 {
					counted[p] = d*n + v + 1
					a.sends[1-d][owner*k+p]++
				}
			}
		}
	}
	return a
}

// apply computes out = Â·fresh (d = 0) or Âᵀ·fresh (d = 1), fully
// overwritten, reading fresh rows over local entries and stale over remote.
func (a *delayedAdj) apply(d int, fresh, out *tensor.Matrix) {
	stale := fresh
	if a.snap != nil {
		if a.refresh {
			copy(a.snap.Data, fresh.Data)
		}
		stale = a.snap
	}
	rowPtr, col, wts := a.norm.CSR(d == 1)
	tensor.ParallelFor(fresh.Rows, int64(len(col))*int64(fresh.Cols), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s, e := rowPtr[v], rowPtr[v+1]
			gnn.SpMMRow(out.Row(v), col[s:e], wts[s:e], fresh, stale, a.remote[d][s:e])
		}
	})
}

// ApplyInto and ApplyTInto are the gnn.Propagation of DistGNN's second GCN
// layer: Â·h and its adjoint Âᵀ·dy.
func (a *delayedAdj) ApplyInto(h, out *tensor.Matrix)   { a.apply(0, h, out) }
func (a *delayedAdj) ApplyTInto(dy, out *tensor.Matrix) { a.apply(1, dy, out) }

// exchange meters one snapshot refresh of direction d's width-column input
// rows: each owner ships every row a reader needs once, in one batch a pair.
func (a *delayedAdj) exchange(net *cluster.Network, width, d int) {
	for i, rows := range a.sends[d] {
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
			adj.exchange(net, cfg.Hidden, 0)
			adj.exchange(net, cfg.Hidden, 1)
		}
		adj.snap = snapH
		nn.SoftmaxCrossEntropyInto(m.Forward(task.X), masked, dLogits)
		adj.snap = snapD
		m.Backward(dLogits)
		opt.Step(params)
	}
	// Evaluate the trained model: fresh layer-1 rows over every edge.
	adj.snap = nil
	adj.exchange(net, cfg.Hidden, 0)
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
