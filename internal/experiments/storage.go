package experiments

import (
	"math"
	"os"
	"path/filepath"
	"slices"

	"graphsys/internal/blogel"
	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
	"graphsys/internal/graph/gen"
	"graphsys/internal/graphd"
	"graphsys/internal/hypo"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/refmodel"
	"graphsys/internal/storage"
)

func init() {
	register("cap-storage", "Capacity (§7/ROADMAP 2): every engine on the out-of-core block store, budgeted cache vs in-memory", CapStorage)
	registerClaims("cap-storage", func(t *Table) []hypo.Hypothesis {
		return []hypo.Hypothesis{tableClaim("cap-storage/oracle-equivalence",
			"every engine's disk-backed result is bitwise-identical to the in-memory oracle, and MRU never re-reads more than LRU on the cyclic sweep", t,
			func(c *checker) {
				for r := range c.t.Rows {
					c.expect(c.t.Rows[r][0]+" identical", c.t.Rows[r][5] == "true", "%s", c.t.Rows[r][5])
				}
				// rows 0-3: pagerank (lru, mru) × (0.10, 0.50)
				c.expect("mru ≤ lru bytes at budget 0.10", c.num(1, 4) <= c.num(0, 4),
					"mru %.0f vs lru %.0f", c.num(1, 4), c.num(0, 4))
				c.expect("mru ≤ lru bytes at budget 0.50", c.num(3, 4) <= c.num(2, 4),
					"mru %.0f vs lru %.0f", c.num(3, 4), c.num(2, 4))
				c.expect("mru bytes shrink with budget", c.num(3, 4) <= c.num(1, 4),
					"0.50: %.0f vs 0.10: %.0f", c.num(3, 4), c.num(1, 4))
			})}
	})
}

// CapStorage runs the four engines against the shared block-CSR layer
// (internal/storage) under bounded cache budgets and cross-checks each
// result against the in-memory oracle. All columns are metered I/O — hit
// ratios and bytes read are deterministic functions of the access sequence,
// never wall time — so the table is byte-identical run to run.
func CapStorage() *Table {
	t := &Table{ID: "cap-storage", Title: "Out-of-core block storage: bounded cache vs in-memory oracle",
		Header: []string{"engine/workload", "evict", "budget", "hit ratio", "bytes read", "identical"}}
	dir := must2(os.MkdirTemp("", "cap-storage"))
	defer os.RemoveAll(dir)

	g := gen.RMAT(13, 8, 21)
	path := filepath.Join(dir, "rmat.gsb")
	info := must2(storage.Write(path, g, storage.Options{BlockBytes: 1 << 12}))
	budget := func(frac float64) int64 {
		return info.ResidentBytes + int64(frac*float64(info.RawCSRBytes))
	}

	// pregel PageRank: a cyclic full sweep per superstep, both eviction
	// policies at a small and a medium cache
	const prIters = 6
	memRanks := must3a(pregel.PageRank(g, prIters, pregel.Config{Workers: 2}))
	for _, frac := range []float64{0.10, 0.50} {
		for _, pol := range []storage.EvictPolicy{storage.LRU, storage.MRU} {
			prov := must2(storage.OpenCached(path, budget(frac), 2, pol))
			ranks := must3a(pregel.PageRank(nil, prIters, pregel.Config{Workers: 2, Source: prov}))
			ident := len(ranks) == len(memRanks)
			for v := range ranks {
				if math.Float64bits(ranks[v]) != math.Float64bits(memRanks[v]) {
					ident = false
					break
				}
			}
			st := prov.Stats()
			must2(0, prov.Close())
			t.AddRow("pregel/pagerank", pol.String(), frac, st.HitRatio(), st.BytesRead, ident)
		}
	}

	// blogel: block construction AND connected components from the source
	part := partition.Hash(g, 4)
	memBlocks := must2(blogel.BuildSource(storage.InMemory(g).Handle(0), part))
	memCC := must2(memBlocks.ConnectedComponents(4))
	{
		prov := must2(storage.OpenCached(path, budget(0.50), 1, storage.LRU))
		blocks := must2(blogel.BuildSource(prov.Handle(0), part))
		cc := must2(blocks.ConnectedComponents(4))
		ident := cc.Supersteps == memCC.Supersteps && cc.Messages == memCC.Messages &&
			len(cc.Labels) == len(memCC.Labels)
		for v := range cc.Labels {
			if cc.Labels[v] != memCC.Labels[v] {
				ident = false
				break
			}
		}
		st := prov.Stats()
		must2(0, prov.Close())
		t.AddRow("blogel/cc", "lru", 0.50, st.HitRatio(), st.BytesRead, ident)
	}

	// gnndist: sampled synchronous training through the source
	task := gnn.SyntheticCommunityTask(600, 4, 8, 0.5, 7)
	tcfg := gnndist.TrainerConfig{Workers: 2, TimeBudget: 10, BatchSize: 16, Fanouts: []int{5, 5}, Seed: 3}
	memTrain := must2(gnndist.TrainSync(task, tcfg))
	{
		tinfo := must2(storage.Write(filepath.Join(dir, "task.gsb"), task.G, storage.Options{BlockBytes: 1 << 10}))
		prov := must2(storage.OpenCached(tinfo.Path, tinfo.ResidentBytes+tinfo.RawCSRBytes/2, 2, storage.LRU))
		cfg := tcfg
		cfg.Source = prov
		res := must2(gnndist.TrainSync(task, cfg))
		ident := math.Float64bits(res.TestAcc) == math.Float64bits(memTrain.TestAcc) &&
			res.Steps == memTrain.Steps && res.GradBytes == memTrain.GradBytes
		st := prov.Stats()
		must2(0, prov.Close())
		t.AddRow("gnndist/sync", "lru", 0.50, st.HitRatio(), st.BytesRead, ident)
	}

	// graphd: the semi-external engine on the block layer (per-pass
	// sequential scans, no cache), against the spec: union-find labels and
	// the in-place sweep's pass count
	{
		bf := must2(graphd.OpenBlocks(path))
		labels, st := must3(bf.ConnectedComponents())
		_, wantPasses := refmodel.ScanCC(g)
		ident := st.Passes == wantPasses && slices.Equal(labels, refmodel.CC(g))
		must2(0, bf.Close())
		t.AddRow("graphd/cc", "scan", "-", "-", st.BytesRead, ident)
	}

	t.Note("block file: %d B for a %d B raw CSR (%.2fx compression); resident state is O(|V|) degrees+index = %d B",
		info.FileBytes, info.RawCSRBytes, info.CompressionRatio(), info.ResidentBytes)
	t.Note("identical = bitwise-equal results vs the in-memory oracle (ranks, labels, training trajectory)")
	t.Note("on the cyclic PageRank sweep MRU pins a stable prefix of the working set, so it re-reads fewer bytes than LRU at the same budget (sequential flooding)")
	return t
}

// must3a unwraps the (value, result, error) triple of engine entry points
// where only the first value is needed.
func must3a[A, B any](a A, _ B, err error) A {
	if err != nil {
		panic(err)
	}
	return a
}
