package experiments

import (
	"fmt"
	"math/rand"

	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/graph"
	"graphsys/internal/partition"
	"graphsys/internal/tensor"
)

func init() {
	register("tab2-features", "Table 2: technique matrix of the implemented distributed GNN trainers", Table2Features)
	register("tab2-part", "Table 2: graph partitioning → feature-fetch traffic", Table2Partitioning)
	register("tab2-sampling", "Table 2: neighborhood sampling fanout → traffic and accuracy", Table2Sampling)
	register("tab2-cache", "Table 2: hot-vertex feature caching (BGL)", Table2Caching)
	register("tab2-pipeline", "Table 2: operator pipelining (ByteGNN/BGL/Dorylus)", Table2Pipelining)
	register("tab2-async", "Table 2: sync vs bounded staleness vs Sancus", Table2Staleness)
	register("tab2-quant", "Table 2: quantised gradient compression (EC-Graph/EXACT)", Table2Quantization)
	register("tab2-pushpull", "Table 2: P³ push-pull vs data-parallel pull", Table2PushPull)
	register("tab2-fullgraph", "Table 2: full-graph training — DistGNN delayed updates, HongTu offload", Table2FullGraph)
	register("tab2-commplan", "Table 2: DGCL topology-aware communication planning", Table2CommPlan)
	register("tab2-serverless", "Table 2: Dorylus serverless cost model", Table2Serverless)
}

// task used across Table-2 experiments.
func table2Task() *gnn.Task { return gnn.SyntheticCommunityTask(300, 3, 2, 0.3, 17) }

// Table2Features recreates the paper's Table 2 as a checkmark matrix over
// the mechanisms implemented in internal/gnndist.
func Table2Features() *Table {
	t := &Table{ID: "tab2-features", Title: "Distributed GNN training techniques (this library)",
		Header: []string{"trainer / mechanism (paper exemplar)", "partitioning", "sampling", "pipelining", "async", "compression", "caching", "comm-plan", "offload"}}
	t.AddRow("TrainSync (DistDGL-style)", "yes", "yes", "-", "-", "opt", "opt", "-", "-")
	t.AddRow("TrainBoundedStale (Dorylus/P³)", "yes", "yes", "-", "yes", "opt", "opt", "-", "-")
	t.AddRow("TrainSancus (Sancus)", "yes", "yes", "-", "adaptive", "opt", "opt", "-", "-")
	t.AddRow("TrainDistGNN (DistGNN)", "edge-cut (METIS)", "-", "-", "delayed", "-", "-", "-", "-")
	t.AddRow("OffloadedGCNForward (HongTu)", "chunked", "-", "-", "-", "-", "-", "-", "yes")
	t.AddRow("PushPullLayer1 (P³)", "feature-dim", "yes", "-", "-", "-", "-", "-", "-")
	t.AddRow("Pipeline scheduler (ByteGNN/BGL)", "-", "-", "yes", "-", "-", "-", "-", "-")
	t.AddRow("CommPlan (DGCL)", "-", "-", "-", "-", "-", "-", "yes", "-")
	t.AddRow("LambdaPool (Dorylus)", "-", "-", "yes", "-", "-", "-", "-", "serverless")
	return t
}

// Table2Partitioning compares feature-fetch traffic of distributed sampled
// training under the partitioning strategies the paper discusses.
func Table2Partitioning() *Table {
	t := &Table{ID: "tab2-part", Title: "Partitioning → remote feature fetches (4 workers, sampled GCN, sparse seeds)",
		Header: []string{"partitioner", "edge cut", "imbalance", "remote fetch frac", "net bytes", "test acc"}}
	// sparse labeling (5% train seeds on a 1200-vertex graph): the regime
	// ByteGNN/BGL target, where the workload is the seeds' few-hop balls and
	// a global min edge-cut is not the right objective
	task := gnn.SyntheticCommunityTask(1200, 4, 2, 0.05, 19)
	seeds := task.TrainSeeds()
	parts := []struct {
		name string
		mk   func() *partition.Partition
	}{
		{"hash (baseline)", func() *partition.Partition { return partition.Hash(task.G, 4) }},
		{"LDG streaming", func() *partition.Partition { return partition.LDG(task.G, 4) }},
		{"METIS-like (DistDGL/DGCL)", func() *partition.Partition { return partition.Metis(task.G, 4) }},
		{"BFS-Voronoi (ByteGNN/BGL)", func() *partition.Partition { return partition.BFSVoronoi(task.G, seeds, 4) }},
	}
	for _, pp := range parts {
		part := pp.mk()
		res := must2(gnndist.TrainSync(task, gnndist.TrainerConfig{
			Workers: 4, TimeBudget: 15, Seed: 7, Part: part,
		}))
		t.AddRow(pp.name, part.EdgeCut(task.G), fmt.Sprintf("%.2f", part.Imbalance()),
			fmt.Sprintf("%.3f", res.RemoteFrac), res.Net.Bytes, res.TestAcc)
	}
	t.Note("METIS-like partitioning minimises traffic but is the most expensive to compute (multi-pass coarsening vs one streaming pass); BFS-Voronoi and LDG recover much of the locality at streaming cost (ByteGNN/BGL's trade)")
	return t
}

// Table2Sampling sweeps the neighbor-sampling fanout.
func Table2Sampling() *Table {
	t := &Table{ID: "tab2-sampling", Title: "Neighborhood sampling fanout (2-layer GCN, 4 workers)",
		Header: []string{"fanout", "net bytes", "remote frac", "test acc"}}
	task := table2Task()
	for _, fanout := range []int{2, 4, 8, 16, 32} {
		res := must2(gnndist.TrainSync(task, gnndist.TrainerConfig{
			Workers: 4, TimeBudget: 15, Seed: 8, Fanouts: []int{fanout, fanout},
		}))
		t.AddRow(fmt.Sprintf("%d,%d", fanout, fanout), res.Net.Bytes,
			fmt.Sprintf("%.3f", res.RemoteFrac), res.TestAcc)
	}
	t.Note("small fanouts bound graph-data communication (Euler/AliGraph/ByteGNN) at modest accuracy cost")
	return t
}

// Table2Caching toggles the BGL hot-vertex cache.
func Table2Caching() *Table {
	t := &Table{ID: "tab2-cache", Title: "Hot-vertex feature cache (BGL), 4 workers",
		Header: []string{"cache size", "remote fetches", "cache hits", "net bytes", "test acc"}}
	task := table2Task()
	for _, size := range []int{0, 16, 64, 256} {
		res := must2(gnndist.TrainSync(task, gnndist.TrainerConfig{
			Workers: 4, TimeBudget: 15, Seed: 9, CacheSize: size,
		}))
		t.AddRow(size, res.Misses, res.Hits, res.Net.Bytes, res.TestAcc)
	}
	t.Note("caching the high-degree vertices absorbs most remote fetches on skewed graphs")
	return t
}

// Table2Pipelining compares sequential vs pipelined stage execution. Each
// stage's per-batch cost is METERED from the work the stage actually did —
// sample: vertices+edges touched; fetch: bytes moved, weighted for a
// network-bound link; compute: forward-pass flops, weighted for a fast ALU —
// so the makespans are deterministic cost-model quantities, not wall times.
// The stage bodies still execute for real (the fetch feeds the forward
// pass), which keeps the meters honest.
func Table2Pipelining() *Table {
	t := &Table{ID: "tab2-pipeline", Title: "Stage pipelining (sample → fetch → compute), cost units",
		Header: []string{"batches", "sequential", "pipelined", "speedup"}}
	task := table2Task()
	rng := rand.New(rand.NewSource(5))
	part := partition.Hash(task.G, 4)
	net := cluster.NewNetwork(4)
	fs := gnndist.NewFeatureStore(task.X, part, net)
	seeds := task.TrainSeeds()
	const (
		bytesPerUnit = 20.0  // network: 20 B per cost unit (the bottleneck-ish link)
		flopsPerUnit = 100.0 // compute: 100 flops per cost unit
	)
	for _, batches := range []int{4, 16, 64} {
		times := make(gnndist.StageTimes, 3)
		for s := range times {
			times[s] = make([]float64, batches)
		}
		for b := 0; b < batches; b++ {
			batch := []graph.V{seeds[rng.Intn(len(seeds))], seeds[rng.Intn(len(seeds))]}
			if batch[0] == batch[1] {
				batch = batch[:1]
			}
			sub := gnn.NeighborSample(task.G, batch, []int{8, 8}, rng)
			bx := fs.Fetch(0, sub.NewToOld)
			m := gnn.NewModel(sub.Graph, gnn.GCN, []int{task.X.Cols, 16, task.NumClasses}, 1)
			m.Forward(bx)
			n := float64(len(sub.NewToOld))
			e := float64(sub.Graph.NumEdges())
			times[0][b] = n + e                                            // sampling touches each sampled vertex and edge
			times[1][b] = n * float64(task.X.Cols) * 4 / bytesPerUnit      // feature rows over the wire
			times[2][b] = (n*float64(task.X.Cols) + e) * 16 / flopsPerUnit // two-layer forward, hidden=16
		}
		seq := gnndist.SequentialMakespan(times)
		pip := gnndist.PipelinedMakespan(times)
		t.AddRow(batches, fmtF(seq), fmtF(pip), fmt.Sprintf("%.2fx", seq/pip))
	}
	t.Note("pipelining hides all but the bottleneck stage (ByteGNN two-level scheduling / BGL factored executors); speedup approaches sum/bottleneck as batches grow")
	return t
}

// Table2Staleness is the time-to-accuracy comparison of synchronisation
// modes with a straggler.
func Table2Staleness() *Table {
	t := &Table{ID: "tab2-async", Title: "Sync vs bounded-staleness vs Sancus (one 5x straggler, fixed time budget)",
		Header: []string{"mode", "steps applied", "sync rounds", "skipped bcasts", "net bytes", "test acc"}}
	task := table2Task()
	speeds := []float64{1, 1, 1, 5}
	base := gnndist.TrainerConfig{Workers: 4, TimeBudget: 40, WorkerSpeed: speeds, Seed: 10}
	sync := must2(gnndist.TrainSync(task, base))
	t.AddRow("sync (DistDGL-style)", sync.Steps, sync.SyncRounds, 0, sync.Net.Bytes, sync.TestAcc)
	for _, s := range []int{2, 8} {
		cfg := base
		cfg.Staleness = s
		async := must2(gnndist.TrainBoundedStale(task, cfg))
		t.AddRow(fmt.Sprintf("bounded staleness s=%d (Dorylus/P³)", s),
			async.Steps, async.SyncRounds, 0, async.Net.Bytes, async.TestAcc)
	}
	cfg := base
	cfg.SancusTau = 5e-3
	cfg.TimeBudget = 200 // same number of rounds as sync (40 rounds at cost 5)
	sancus := must2(gnndist.TrainSancus(task, cfg))
	t.AddRow("Sancus adaptive (40 rounds)", sancus.Steps, sancus.SyncRounds, sancus.Skipped, sancus.Net.Bytes, sancus.TestAcc)
	syncLong := base
	syncLong.TimeBudget = 200
	sl := must2(gnndist.TrainSync(task, syncLong))
	t.AddRow("sync (40 rounds)", sl.Steps, sl.SyncRounds, 0, sl.Net.Bytes, sl.TestAcc)
	t.Note("asynchrony lands more gradient steps in the same simulated time when a straggler gates synchronous rounds")
	t.Note("Sancus skips broadcasts once updates shrink, cutting bytes at matched round count")
	return t
}

// Table2Quantization sweeps gradient-compression settings.
func Table2Quantization() *Table {
	t := &Table{ID: "tab2-quant", Title: "Gradient quantisation (sync training, fixed budget)",
		Header: []string{"bits", "error comp.", "grad bytes", "vs fp32", "test acc"}}
	task := gnn.HardSyntheticCommunityTask(300, 3, 0.3, 17)
	var fp32Bytes int64
	for _, cfg := range []struct {
		bits int
		ec   bool
	}{{32, false}, {8, false}, {8, true}, {4, false}, {4, true}, {2, false}, {2, true}} {
		res := must2(gnndist.TrainSync(task, gnndist.TrainerConfig{
			Workers: 4, TimeBudget: 30, Seed: 11, QuantBits: cfg.bits, QuantCompensate: cfg.ec,
		}))
		if cfg.bits == 32 {
			fp32Bytes = res.GradBytes
		}
		t.AddRow(cfg.bits, cfg.ec, res.GradBytes,
			fmt.Sprintf("%.2fx less", float64(fp32Bytes)/float64(res.GradBytes)), res.TestAcc)
	}
	t.Note("low-bit compression shrinks traffic up to the per-row-scale floor")
	t.Note("Adam absorbs quantisation noise on this task even at 2 bits; EC's bias removal is isolated in TestQuantizerErrorCompensation (running mean converges to the true value only with EC)")
	return t
}

// Table2PushPull compares P³'s push-pull layer-1 against feature pulling for
// several feature widths.
func Table2PushPull() *Table {
	t := &Table{ID: "tab2-pushpull", Title: "P³ push-pull vs data-parallel pull (layer-1, 4 workers, hidden=16)",
		Header: []string{"feature dim D", "pull bytes", "push-pull bytes", "winner"}}
	task := table2Task()
	const k, hidden = 4, 16
	batch := task.TrainSeeds()[:24]
	for _, d := range []int{8, 32, 128, 512} {
		x := tensor.Xavier(task.G.NumVertices(), d, int64(d))
		w1 := tensor.Xavier(d, hidden, 3)
		part := partition.Hash(task.G, k)
		fd := partition.NewFeatureDim(d, k)
		netPull := cluster.NewNetwork(k)
		zPull, pullBytes := gnndist.PullLayer1(netPull, part, x, w1, batch, 0)
		netPush := cluster.NewNetwork(k)
		zPush, pushBytes := gnndist.PushPullLayer1(netPush, fd, x, w1, batch, 0)
		if tensor.MaxAbsDiff(zPull, zPush) > 1e-2 {
			//lint:allow panicpolicy cross-validation assertion between pull and push-pull layer results; graphbench recovers it into a non-zero exit
			panic("push-pull result mismatch")
		}
		winner := "pull"
		if pushBytes < pullBytes {
			winner = "push-pull (P³)"
		}
		t.AddRow(d, pullBytes, pushBytes, winner)
	}
	t.Note("P³ wins once D exceeds ~k·H/(remote fraction): the hidden dimension, not the feature width, crosses the wire")
	return t
}

// Table2FullGraph reports DistGNN delayed updates and HongTu offloading.
func Table2FullGraph() *Table {
	t := &Table{ID: "tab2-fullgraph", Title: "Full-graph training: delayed updates (DistGNN) and offload (HongTu)",
		Header: []string{"setting", "metric", "value", "test acc", "final loss"}}
	task := table2Task()
	for _, refresh := range []int{1, 2, 4, 8} {
		res := gnndist.TrainDistGNN(task, gnndist.DistGNNConfig{Workers: 4, Epochs: 40, RefreshEvery: refresh, Seed: 12})
		t.AddRow(fmt.Sprintf("DistGNN refresh=%d", refresh), "boundary bytes",
			res.Net.Bytes, res.TestAcc, fmt.Sprintf("%.4f", res.Loss))
	}
	// HongTu offload accounting
	const hidden = 16
	m := gnn.NewModel(task.G, gnn.GCN, []int{task.X.Cols, hidden, task.NumClasses}, 1)
	for _, chunk := range []int{300, 64, 16} {
		_, st := gnndist.OffloadedGCNForward(m, task.X, chunk)
		t.AddRow(fmt.Sprintf("HongTu chunk=%d", chunk),
			fmt.Sprintf("device peak %d / full %d floats", st.DevicePeakFloats, st.FullGraphFloats),
			fmt.Sprintf("host xfer %d", st.HostTransferred), "n/a (identical forward)", "-")
	}
	t.Note("delayed refresh divides boundary traffic (activations and gradients) without costing accuracy or final loss on this task; offloading bounds device memory at host-transfer cost")
	return t
}

// Table2CommPlan shows DGCL-style topology-aware planning on an NVLink-like
// topology.
func Table2CommPlan() *Table {
	t := &Table{ID: "tab2-commplan", Title: "DGCL communication planning (2 hosts x 4 GPUs, NVLink cost 0.05)",
		Header: []string{"plan", "weighted cost", "improvement"}}
	net := cluster.NewNetwork(8)
	cluster.RingTopology(net, 4, 0.05)
	// cross-host links are asymmetric: one congested pair
	net.SetLinkCost(0, 4, 5)
	net.SetLinkCost(4, 0, 5)
	rng := rand.New(rand.NewSource(13))
	var ts []cluster.Transfer
	for i := 0; i < 64; i++ {
		from := rng.Intn(8)
		to := rng.Intn(8)
		if from == to {
			continue
		}
		ts = append(ts, cluster.Transfer{From: from, To: to, Size: int64(1000 + rng.Intn(9000))})
	}
	direct := cluster.DirectPlan(ts).Execute(net, ts)
	net.Reset()
	cluster.RingTopology(net, 4, 0.05)
	net.SetLinkCost(0, 4, 5)
	net.SetLinkCost(4, 0, 5)
	planned := cluster.PlanRelay(net, ts).Execute(net, ts)
	t.AddRow("direct point-to-point", fmt.Sprintf("%.0f", direct), "1.00x")
	t.AddRow("DGCL relay planning", fmt.Sprintf("%.0f", planned), fmt.Sprintf("%.2fx", direct/planned))
	t.Note("relaying through fast intra-host links avoids congested cross-host links")
	return t
}

// Table2Serverless reproduces Dorylus' cost argument with the lambda cost
// model: 100k minibatches on 4 rented GPU servers vs 4 cheap CPU graph
// servers + lambda threads. Rather than timing this host (wall time is
// banned here), the table sweeps the MODELED per-batch compute time and
// prices both backends at each point, exposing the structure of the claim:
// lambda billing charges startup per invocation, so serverless loses below
// the ~10 ms amortisation point and wins increasingly above it — and real
// GNN batches (Dorylus', and this repo's once graphs are non-toy) sit well
// above it. The lambda pool is still exercised for real: a 64-batch probe
// runs sampled GCN forwards on it and bills METERED flops through the pool's
// own accounting, grounding the flop meter the note reports.
func Table2Serverless() *Table {
	t := &Table{ID: "tab2-serverless", Title: "Dorylus cost model: GPU servers vs CPU+serverless, 100k batches",
		Header: []string{"per-batch compute", "wall time (s)", "GPU cost", "serverless cost", "serverless advantage"}}
	model := cluster.DefaultCostModel()
	task := table2Task()
	// probe: run real sampled forwards on the lambda pool, billing metered
	// forward-pass flops (2 flops per MAC: aggregate edges×cols, transform
	// vertices×cols×hidden, both layers)
	pool := cluster.NewLambdaPool(8)
	seeds := task.TrainSeeds()
	rng := rand.New(rand.NewSource(14))
	const probeBatches = 64
	flops := make([]int64, probeBatches)
	batchSeeds := make([]graph.V, probeBatches)
	for i := range batchSeeds {
		batchSeeds[i] = seeds[rng.Intn(len(seeds))]
	}
	pool.Map(probeBatches, func(i int) int64 { return flops[i] }, func(i int) {
		sub := gnn.NeighborSample(task.G, []graph.V{batchSeeds[i]}, []int{8, 8},
			rand.New(rand.NewSource(int64(i))))
		m := gnn.NewModel(sub.Graph, gnn.GCN, []int{task.X.Cols, 16, task.NumClasses}, 1)
		idx := make([]int, len(sub.NewToOld))
		for j, v := range sub.NewToOld {
			idx[j] = int(v)
		}
		m.Forward(tensor.SelectRows(task.X, idx))
		n, e := int64(len(sub.NewToOld)), sub.Graph.NumEdges()
		flops[i] = 2 * (e*int64(task.X.Cols) + n*int64(task.X.Cols)*16 + e*16 + n*16*int64(task.NumClasses))
	})
	const batches = 100_000
	for _, perBatchMs := range []float64{0.1, 1, 10, 100} {
		computeSec := perBatchMs / 1e3 * batches
		wallSec := computeSec / 4 // 4-way parallel servers either way
		gpu := model.GPUCost(4, wallSec)
		lam := model.LambdaCost(batches, computeSec, 4, wallSec)
		t.AddRow(fmtF(perBatchMs)+" ms", fmtF(wallSec),
			fmt.Sprintf("$%.4f", gpu), fmt.Sprintf("$%.4f", lam), fmt.Sprintf("%.2fx", gpu/lam))
	}
	t.Note("probe: %d metered flops billed over %d real pool invocations (≈%d flops/batch)",
		pool.UnitsBilled(), pool.Invocations(), pool.UnitsBilled()/pool.Invocations())
	t.Note("serverless pays $%.2f/h only while computing plus %.0f ms startup per invocation; GPU servers pay $%.2f/h of rented wall time",
		model.LambdaRatePerSec*3600, model.LambdaStartupSec*1e3, model.GPURatePerSec*3600)
	t.Note("Dorylus: above the startup-amortisation point, CPU servers + lambdas are the more cost-effective backend — and sparse GNN batches sit there")
	return t
}
