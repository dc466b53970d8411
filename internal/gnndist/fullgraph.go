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
// apply combines FRESH activations over same-partition edges with a STALE
// snapshot over cross-partition edges — DistGNN's delayed-update
// communication avoidance, where remote partial aggregates are refreshed
// only every few epochs.
//
// The entries are gnn.NewNormAdj's CSR (neighbors in graph order, self-loop
// last) with a per-entry remote flag beside them. The backward pass gathers
// over a transpose of the local entries only, whose row u lists its sources
// v in ascending order: the order in which a serial scatter over v would
// have accumulated into row u. Both kernels own their output rows, so they
// run in parallel with results bitwise identical at any worker count.
type delayedAdj struct {
	n      int
	rowPtr []int32
	col    []graph.V
	wts    []float32
	remote []bool // aligned with col: true if the edge crosses partitions

	// local-edge transpose: tCol[tPtr[u]:tPtr[u+1]] are the v with a local
	// entry (v, u), ascending, and tWts their weights
	tPtr []int32
	tCol []graph.V
	tWts []float32
}

func newDelayedAdj(g *graph.Graph, part *partition.Partition) *delayedAdj {
	n := g.NumVertices()
	a := &delayedAdj{n: n, tPtr: make([]int32, n+1)}
	a.rowPtr, a.col, a.wts = gnn.NewNormAdj(g).CSR()
	a.remote = make([]bool, len(a.col))
	for v := 0; v < n; v++ {
		for idx := a.rowPtr[v]; idx < a.rowPtr[v+1]; idx++ {
			u := a.col[idx]
			a.remote[idx] = part.Assign[u] != part.Assign[v]
			if !a.remote[idx] {
				a.tPtr[u+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		a.tPtr[u+1] += a.tPtr[u]
	}
	a.tCol = make([]graph.V, a.tPtr[n])
	a.tWts = make([]float32, a.tPtr[n])
	next := append([]int32(nil), a.tPtr[:n]...)
	for v := 0; v < n; v++ {
		for idx := a.rowPtr[v]; idx < a.rowPtr[v+1]; idx++ {
			if a.remote[idx] {
				continue
			}
			u := a.col[idx]
			a.tCol[next[u]] = graph.V(v)
			a.tWts[next[u]] = a.wts[idx]
			next[u]++
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

// applyLocalT computes out = Âᵀ·dY (fully overwritten) restricted to local
// edges: gradients do not flow through the stale snapshot — exactly the
// approximation delayed updates make.
func (a *delayedAdj) applyLocalT(dy, out *tensor.Matrix) {
	tensor.ParallelFor(a.n, int64(len(a.tCol))*int64(dy.Cols), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			s, e := a.tPtr[u], a.tPtr[u+1]
			gnn.SpMMRow(out.Row(u), a.tCol[s:e], a.tWts[s:e], dy, nil, nil)
		}
	})
}

// boundaryVertices returns the vertices having at least one cross-partition
// neighbor (whose activations must be shipped on refresh).
func boundaryVertices(g *graph.Graph, part *partition.Partition) []graph.V {
	var out []graph.V
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.V(v)) {
			if part.Assign[u] != part.Assign[v] {
				out = append(out, graph.V(v))
				break
			}
		}
	}
	return out
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
	Refreshes int64   // snapshot refreshes during training
	Net       cluster.Stats
}

// TrainDistGNN trains a 2-layer GCN full-graph with DistGNN's delayed
// updates: layer-2 aggregation uses a snapshot of layer-1 activations for
// cross-partition edges, refreshed (and metered) every RefreshEvery epochs.
// After the last epoch it evaluates the trained model with one more forward
// over fresh layer-1 rows on every edge, as gnn.TrainFullGraph does; that
// forward's boundary exchange is metered in Net like a refresh but is not
// counted in Refreshes.
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
	clst := cluster.New(cfg.Workers)
	adj := newDelayedAdj(task.G, cfg.Part)
	boundary := boundaryVertices(task.G, cfg.Part)

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
	// At RefreshEvery 1 the snapshot is h1 itself; otherwise an owned copy.
	var snapshot *tensor.Matrix
	if cfg.RefreshEvery > 1 {
		snapshot = tensor.New(n, cfg.Hidden)
	}
	// exchange ships every boundary vertex's layer-1 row to the other
	// workers, metered: a refresh, or the evaluation's fresh read.
	exchange := func() {
		for _, v := range boundary {
			owner := cfg.Part.Assign[v]
			for w := 0; w < cfg.Workers; w++ {
				if w != owner {
					clst.Network().Account(owner, w, int64(cfg.Hidden)*4)
				}
			}
		}
	}
	var res DistGNNResult
	for ep := 0; ep < cfg.Epochs; ep++ {
		h1 := relu.Forward(lin1.Forward(agg0))
		staleH1 := h1
		if snapshot != nil {
			staleH1 = snapshot
		}
		if ep%cfg.RefreshEvery == 0 {
			if snapshot != nil {
				copy(snapshot.Data, h1.Data)
			}
			res.Refreshes++
			exchange()
		}
		adj.apply(h1, staleH1, agg1)
		logits := lin2.Forward(agg1)
		_, dLogits := nn.SoftmaxCrossEntropy(logits, masked)
		dAgg1 := lin2.Backward(dLogits)
		dH1 := agg1
		adj.applyLocalT(dAgg1, dH1)
		lin1.BackwardParams(relu.Backward(dH1))
		opt.Step(params)
	}
	// Evaluate the trained model: fresh layer-1 rows over every edge.
	h1 := relu.Forward(lin1.Forward(agg0))
	exchange()
	adj.apply(h1, h1, agg1)
	logits := lin2.Forward(agg1)
	res.TestAcc = nn.Accuracy(logits, task.Labels, task.TestMask)
	res.Net = clst.Network().Stats()
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
// "device" at a time, with inputs streamed from host memory. The returned
// logits are bit-identical in structure to the monolithic forward; the stats
// expose HongTu's trade: bounded device memory for extra host traffic.
func OffloadedGCNForward(g *graph.Graph, x *tensor.Matrix, lin1W, lin1B, lin2W, lin2B *tensor.Matrix, chunkRows int) (*tensor.Matrix, OffloadStats) {
	n := g.NumVertices()
	rowPtr, col, wts := gnn.NewNormAdj(g).CSR()
	var st OffloadStats
	hidden := lin1W.Cols
	classes := lin2W.Cols
	st.FullGraphFloats = int64(n) * int64(x.Cols+hidden+classes)

	layer := func(input *tensor.Matrix, w, b *tensor.Matrix, activate bool) *tensor.Matrix {
		out := tensor.New(n, w.Cols)
		aggRow := make([]float32, input.Cols)
		for lo := 0; lo < n; lo += chunkRows {
			hi := lo + chunkRows
			if hi > n {
				hi = n
			}
			// device holds: chunk of aggregated inputs + chunk of outputs
			devFloats := int64(hi-lo) * int64(input.Cols+w.Cols)
			if devFloats > st.DevicePeakFloats {
				st.DevicePeakFloats = devFloats
			}
			// stream the needed input rows from host (charged per chunk)
			st.HostTransferred += int64(hi-lo) * int64(input.Cols)
			for v := lo; v < hi; v++ {
				// aggregate row v on device
				from, to := rowPtr[v], rowPtr[v+1]
				gnn.SpMMRow(aggRow, col[from:to], wts[from:to], input, nil, nil)
				or := out.Row(v)
				for j := 0; j < w.Cols; j++ {
					var s float32
					for d, av := range aggRow {
						s += float32(av * w.At(d, j))
					}
					s += b.At(0, j)
					if activate && s < 0 {
						s = 0
					}
					or[j] = s
				}
			}
			// write results back to host
			st.HostTransferred += int64(hi-lo) * int64(w.Cols)
		}
		return out
	}
	h1 := layer(x, lin1W, lin1B, true)
	logits := layer(h1, lin2W, lin2B, false)
	return logits, st
}
