package experiments

import (
	"fmt"
	"sort"
	"strings"

	"graphsys/internal/fsm"
	"graphsys/internal/gpusim"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/gthinkerq"
	"graphsys/internal/match"
	"graphsys/internal/mining"
	"graphsys/internal/serve"
	"graphsys/internal/tthinker"
)

func init() {
	register("tab1-features", "Table 1: feature matrix of the implemented subgraph-search engines", Table1Features)
	register("tab1-model", "Table 1: BFS-extension materialisation vs DFS backtracking", Table1BFSvsDFS)
	register("tab1-order", "Table 1: compilation-based matching order + symmetry breaking", Table1MatchingOrder)
	register("tab1-fsm", "Table 1: FSM — task-parallel single-graph (T-FSM) and transactional (PrefixFPM)", Table1FSM)
	register("tab1-online", "Table 1: online interactive querying (G-thinkerQ) vs sequential", Table1OnlineQuery)
	register("tab1-gpu", "Table 1: GPU matching — BFS vs AIMD vs warp-DFS vs hybrid vs partitioned", Table1GPU)
}

// Table1Features recreates the paper's Table 1 as a checkmark matrix over
// the engines implemented in this repository (rows) and the feature columns
// the paper compares systems on.
func Table1Features() *Table {
	t := &Table{ID: "tab1-features", Title: "Subgraph-search engine features (this library)",
		Header: []string{"engine (paper exemplar)", "SF", "FSM", "DFS", "BFS", "online", "GPU-model", "order-compile", "work-steal"}}
	t.AddRow("pregel (TLAV baseline)", "-", "-", "-", "-", "-", "-", "-", "-")
	t.AddRow("mining (Arabesque/Pangolin)", "yes", "yes", "-", "yes", "-", "-", "-", "-")
	t.AddRow("tthinker (G-thinker/G-Miner)", "yes", "-", "yes", "-", "-", "-", "-", "-")
	t.AddRow("gthinkerq (G-thinkerQ)", "yes", "-", "yes", "-", "yes", "-", "-", "-")
	t.AddRow("match (AutoMine/GraphPi/GraphZero)", "yes", "-", "yes", "-", "-", "-", "yes", "-")
	t.AddRow("fsm single-graph (ScaleMine/T-FSM)", "-", "yes", "yes", "-", "-", "-", "-", "-")
	t.AddRow("fsm transactional (PrefixFPM)", "-", "yes", "yes", "-", "-", "-", "-", "-")
	t.AddRow("gpusim BFS (GSI/cuTS)", "yes", "-", "-", "yes", "-", "yes", "-", "-")
	t.AddRow("gpusim partitioned (PBE/VSGM/SGSI)", "yes", "-", "-", "yes", "-", "yes", "-", "-")
	t.AddRow("gpusim AIMD (G²-AIMD)", "yes", "-", "-", "yes", "-", "yes", "-", "-")
	t.AddRow("gpusim warp-DFS (STMatch/T-DFS)", "yes", "-", "yes", "-", "-", "yes", "-", "yes")
	t.AddRow("gpusim hybrid (EGSM)", "yes", "-", "yes", "yes", "-", "yes", "-", "yes")
	t.Note("SF = subgraph finding; FSM = frequent subgraph mining; columns follow the paper's Table 1 axes")
	return t
}

// Table1BFSvsDFS compares BFS subgraph extension (Arabesque-style, peak
// materialised embeddings grows with instance count) against DFS
// backtracking (G-thinker-style, constant memory) on k-clique counting as
// the graph densifies — the paper's core argument for the
// think-like-a-task model. All columns are metered: BFS peak is the largest
// embedding frontier ever materialised, the task-engine columns are its
// deterministic tick/task accounting. The BFS clique count must equal
// match.Count's on a 4-clique plan, an independent depth-first executor.
func Table1BFSvsDFS() *Table {
	t := &Table{ID: "tab1-model", Title: "4-clique counting: BFS materialisation vs DFS backtracking",
		Header: []string{"graph", "cliques", "BFS peak embeddings", "task-engine ticks", "tasks", "max task ticks"}}
	for _, n := range []int{200, 400, 800} {
		g := gen.BarabasiAlbert(n, 8, int64(n))
		bfsCount, bfsStats := mining.CountCliquesBFS(g, 4, mining.Config{Workers: 4})
		dfsCount, _ := match.Count(g, match.OptimizedPlan(gen.Clique(4)), 4)
		if bfsCount != dfsCount {
			//lint:allow panicpolicy cross-validation assertion between two independent implementations; graphbench recovers it into a non-zero exit
			panic(fmt.Sprintf("tab1-model: BFS extension counts %d 4-cliques, match.Count %d", bfsCount, dfsCount))
		}
		// full task-engine maximal-clique mining as the richer DFS workload
		_, stats := tthinker.MaximalCliques(g, false, tthinker.Config{Workers: 4, Budget: 64})
		t.AddRow(fmt.Sprintf("BA n=%d m=%d", n, g.NumEdges()), bfsCount,
			bfsStats.Peak, stats.Ticks, stats.Tasks, stats.MaxTaskTicks)
	}
	t.Note("BFS peak embeddings grows with the instance count (the paper's materialisation-cost critique); DFS memory is O(k·Δ)")
	t.Note("task-engine work is metered in ticks (search-tree nodes); max task ticks bounds what the task pool can balance")
	return t
}

// Table1MatchingOrder shows the effect of compiled matching orders
// (AutoMine/GraphPi/GraphZero): candidate scans with a naive id order vs a
// connectivity/degree-aware greedy order, and the counting overhead removed
// by symmetry-breaking restrictions.
func Table1MatchingOrder() *Table {
	t := &Table{ID: "tab1-order", Title: "Matching plans on BA(600,6): candidates scanned / tree nodes",
		Header: []string{"pattern", "plan", "matches", "candidates", "tree nodes"}}
	g := gen.BarabasiAlbert(600, 6, 3)
	pats := []struct {
		name string
		p    *graph.Graph
	}{
		{"triangle", graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})},
		{"tailed-tri", graph.FromEdges(4, [][2]graph.V{{0, 2}, {1, 2}, {0, 1}, {2, 3}})},
		{"4-chord", graph.FromEdges(4, [][2]graph.V{{0, 2}, {1, 2}, {2, 3}, {0, 3}, {1, 3}})},
	}
	for _, pat := range pats {
		for _, plan := range []struct {
			name string
			p    *match.Plan
		}{
			{"naive-id", match.NaivePlan(pat.p)},
			{"greedy-order", match.GreedyPlan(pat.p)},
			{"+symmetry", match.OptimizedPlan(pat.p)},
		} {
			count, stats := match.Count(g, plan.p, 4)
			t.AddRow(pat.name, plan.name, count, stats.Candidates, stats.TreeNodes)
		}
	}
	t.Note("greedy order prunes candidate scans; symmetry breaking divides matches by |Aut| without recount")
	return t
}

// Table1FSM checks the property that makes task-parallel FSM valid at all
// (the T-FSM/ScaleMine and PrefixFPM axis): support evaluation decomposes
// into independent tasks, so the mined pattern set must be IDENTICAL at any
// worker count. The table reports the canonical pattern set and the
// cross-worker-count equality; throughput scaling is a host property and
// lives in the benchmarks, not here.
func Table1FSM() *Table {
	t := &Table{ID: "tab1-fsm", Title: "Frequent subgraph mining: worker-count invariance",
		Header: []string{"setting", "patterns", "total support", "1w==4w", "1w==8w"}}
	canon := func(pats []fsm.Pattern) (string, int) {
		keys := make([]string, len(pats))
		total := 0
		for i, p := range pats {
			keys[i] = fmt.Sprintf("%s@%d", p.Code.String(), p.Support)
			total += p.Support
		}
		sort.Strings(keys)
		return strings.Join(keys, "|"), total
	}
	// single big graph, MNI support
	g := gen.WithRandomLabels(gen.ErdosRenyi(300, 900, 5), 3, 6)
	cfgFor := func(w int) fsm.MineConfig {
		return fsm.MineConfig{MinSupport: 25, MaxEdges: 3, Workers: w}
	}
	k1, support := canon(fsm.MineSingleGraph(g, cfgFor(1)))
	k4, _ := canon(fsm.MineSingleGraph(g, cfgFor(4)))
	k8, _ := canon(fsm.MineSingleGraph(g, cfgFor(8)))
	t.AddRow("single-graph MNI (T-FSM)", strings.Count(k1, "|")+1, support, k1 == k4, k1 == k8)

	db := gen.MoleculeDB(120, 10, 4, 0.9, 9)
	tcfg := func(w int) fsm.MineConfig { return fsm.MineConfig{MinSupport: 30, MaxEdges: 4, Workers: w} }
	t1, tsupport := canon(fsm.MineTransactions(db, tcfg(1)))
	t4, _ := canon(fsm.MineTransactions(db, tcfg(4)))
	t8, _ := canon(fsm.MineTransactions(db, tcfg(8)))
	t.AddRow("transactional (PrefixFPM)", strings.Count(t1, "|")+1, tsupport, t1 == t4, t1 == t8)
	t.Note("support evaluation decomposes into independent tasks (T-FSM); root patterns parallelise prefix-projected databases (PrefixFPM)")
	t.Note("pattern sets are compared as sorted canonical DFS codes with supports — equality is what licenses the parallel decomposition")
	return t
}

// Table1OnlineQuery shows G-thinkerQ's value: completion time of short
// queries that arrive while a heavy query is running, under shared-pool
// concurrent admission vs strict sequential (offline) execution.
//
// Latencies are computed from METERED work, not the wall clock: each query's
// cost is its search-tree size (match.Stats.TreeNodes), the pool retires C
// work units per engine time unit, and the two admission policies become
// deterministic scheduling models — sequential runs jobs back to back, while
// G-thinkerQ's per-query round-robin is egalitarian processor sharing across
// the active queries. The live engine (gthinkerq.Engine, round-robin) runs
// both queries too: its match counts must agree with the planner's, which
// pins the work metering to reality.
func Table1OnlineQuery() *Table {
	t := &Table{ID: "tab1-online", Title: "Online subgraph querying: light-query completion behind a heavy query (engine time units)",
		Header: []string{"admission", "heavy done", "mean light latency", "max light latency"}}
	// labeled data graph: light queries are SELECTIVE labeled triangles (the
	// realistic online workload), the heavy query is an unlabeled 5-clique
	// sweep over the whole graph
	g := gen.WithRandomLabels(gen.BarabasiAlbert(4000, 14, 4), 30, 8)
	heavy := gen.Clique(5)
	lb := graph.NewBuilder(3, false)
	lb.SetLabel(0, 1)
	lb.SetLabel(1, 2)
	lb.SetLabel(2, 3)
	lb.AddEdge(0, 1)
	lb.AddEdge(1, 2)
	lb.AddEdge(0, 2)
	light := lb.Build()

	const workers, lights = 4, 6
	heavyCount, heavyStats := match.Count(g, match.OptimizedPlan(heavy), workers)
	lightCount, lightStats := match.Count(g, match.OptimizedPlan(light), workers)
	wH := float64(heavyStats.TreeNodes)
	wL := float64(lightStats.TreeNodes)

	// cross-validate the model's work source against the live engine: the
	// shared-pool engine must produce the same match counts the planner does
	eng := must2(gthinkerq.NewEngine(g, serve.Options{Workers: workers, Policy: serve.RoundRobin}))
	hq := must2(eng.Submit(serve.Request[*graph.Graph]{Query: heavy}))
	lq := must2(eng.Submit(serve.Request[*graph.Graph]{Query: light}))
	if must2(hq.Wait()) != heavyCount || must2(lq.Wait()) != lightCount {
		//lint:allow panicpolicy cross-validation assertion between the online engine and the matching planner; graphbench recovers it into a non-zero exit
		panic("gthinkerq counts disagree with match.Count")
	}
	must(eng.Close())

	// All light queries ARRIVE right after the heavy one; latency is engine
	// time from that shared arrival instant, at C = workers units of work
	// retired per time unit.
	//
	// Sequential (offline): the heavy job owns the whole pool, then each
	// light job runs alone, one at a time.
	seqHeavy := wH / workers
	var seqSum, seqMax float64
	for i := 1; i <= lights; i++ {
		l := (wH + float64(i)*wL) / workers
		seqSum += l
		if l > seqMax {
			seqMax = l
		}
	}
	// Concurrent (G-thinkerQ): per-query round-robin task draw = egalitarian
	// processor sharing over the 1+lights active queries. All light queries
	// carry equal work, so they finish together at rate C/(1+lights) each;
	// the heavy query then finishes on the full pool.
	active := float64(1 + lights)
	lightDone := wL * active / workers
	concHeavy := lightDone + (wH-wL)/workers

	t.AddRow("concurrent (G-thinkerQ)", fmtF(concHeavy), fmtF(lightDone), fmtF(lightDone))
	t.AddRow("sequential (offline)", fmtF(seqHeavy), fmtF(seqSum/lights), fmtF(seqMax))
	t.Note("work: heavy=%d tree nodes (%d matches), light=%d tree nodes (%d matches); pool C=%d units/time",
		heavyStats.TreeNodes, heavyCount, lightStats.TreeNodes, lightCount, workers)
	t.Note("with shared-pool task admission, short queries are not gated by the long-running one: light latency drops from O(W_heavy/C) to O(q·W_light/C)")
	return t
}

// Table1GPU runs the five GPU matching strategies on the simulated device
// under ample and scarce memory, reporting the metrics that drive the
// paper's GPU-systems narrative (OOM, host spill, divergence, coalescing).
func Table1GPU() *Table {
	t := &Table{ID: "tab1-gpu", Title: "Simulated-GPU subgraph matching (4-cycle on BA(400,8))",
		Header: []string{"memory", "engine", "matches", "warp cycles", "peak mem", "host spill", "random acc", "OOM"}}
	g := gen.BarabasiAlbert(400, 8, 6)
	pattern := graph.FromEdges(4, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	plan := match.OptimizedPlan(pattern)
	for _, mem := range []struct {
		name  string
		slots int64
	}{{"ample (1G slots)", 1 << 30}, {"scarce (4k slots)", 4096}} {
		dev := &gpusim.Device{NumSMs: 8, WarpSize: 32, MemorySlots: mem.slots}
		type engine struct {
			name string
			run  func() (int64, gpusim.Metrics)
		}
		assign := make([]int, g.NumVertices())
		for v := range assign {
			assign[v] = v % 8
		}
		engines := []engine{
			{"BFS (GSI/cuTS)", func() (int64, gpusim.Metrics) { return gpusim.BFSMatch(g, plan, dev) }},
			{"partitioned BFS (PBE/VSGM)", func() (int64, gpusim.Metrics) { return gpusim.PartitionedBFSMatch(g, plan, dev, assign, 8) }},
			{"AIMD chunked (G²-AIMD)", func() (int64, gpusim.Metrics) { return gpusim.AIMDMatch(g, plan, dev) }},
			{"warp DFS (STMatch/T-DFS)", func() (int64, gpusim.Metrics) { return gpusim.DFSWarpMatch(g, plan, dev) }},
			{"hybrid (EGSM)", func() (int64, gpusim.Metrics) { return gpusim.HybridMatch(g, plan, dev) }},
		}
		for _, e := range engines {
			count, m := e.run()
			t.AddRow(mem.name, e.name, count, m.WarpCycles, m.PeakMemory, m.HostSpillSlots, m.RandomAccesses, m.OOM)
		}
	}
	t.Note("under scarce memory pure BFS aborts (OOM); AIMD spills to host, DFS/hybrid degrade gracefully — the paper's §2 GPU narrative")
	return t
}
