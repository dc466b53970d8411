package quegel

import (
	"math/rand"
	"path/filepath"
	"testing"

	"graphsys/internal/cluster"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/pregel"
	"graphsys/internal/refmodel"
	"graphsys/internal/storage"
)

// randomQueries draws nq queries with endpoints uniform over g's vertices.
func randomQueries(g *graph.Graph, nq int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	qs := make([]Query, nq)
	for i := range qs {
		qs[i] = Query{Src: graph.V(rng.Intn(n)), Dst: graph.V(rng.Intn(n))}
	}
	return qs
}

// wrongAnswers runs AnswerBatched and counts the answers that differ from
// refmodel.BFS, a plain queue BFS that shares no code with pregel.
func wrongAnswers(t testing.TB, g *graph.Graph, qs []Query, cfg pregel.Config) int {
	t.Helper()
	ans, _, err := AnswerBatched(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, q := range qs {
		if ans[i].Dist != refmodel.BFS(g, q.Src)[q.Dst] {
			wrong++
		}
	}
	return wrong
}

// crashCfg is a run on the given workers that checkpoints every ckpt
// supersteps (0: never) and loses a worker at superstep crash (0: never).
func crashCfg(workers, ckpt, crash int) pregel.Config {
	return pregel.Config{Workers: workers, CheckpointEvery: ckpt,
		RunOptions: cluster.RunOptions{Faults: &cluster.FaultPlan{CrashAtRound: crash}}}
}

// TestQuegelCrashSweep: a rollback to a checkpoint or a full restart must
// not change any answer, at every checkpoint interval and crash round.
func TestQuegelCrashSweep(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 1)
	qs := randomQueries(g, 16, 2)
	cells, bad := 0, 0
	for _, workers := range []int{2, 4} {
		for ckpt := 0; ckpt <= 3; ckpt++ {
			for crash := 1; crash <= 6; crash++ {
				cells++
				if w := wrongAnswers(t, g, qs, crashCfg(workers, ckpt, crash)); w > 0 {
					bad++
					t.Errorf("workers %d, checkpoint every %d, crash at %d: %d of %d answers wrong", workers, ckpt, crash, w, len(qs))
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/%d cells wrong", bad, cells)
	}
}

// TestBatchedReadsThroughSource: on an out-of-core run every adjacency read
// goes through the engine's block cache, and the answers still equal BFS.
func TestBatchedReadsThroughSource(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 1)
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, g, storage.Options{BlockBytes: 1 << 9})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	prov, err := storage.OpenCached(path, info.ResidentBytes+workers*info.MaxDecodedBytes, workers, storage.LRU)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	if w := wrongAnswers(t, g, randomQueries(g, 16, 2), pregel.Config{Workers: workers, Source: prov}); w > 0 {
		t.Fatalf("%d of 16 answers wrong", w)
	}
	if prov.Stats().BlocksRead == 0 {
		t.Fatal("the run read no blocks: adjacency bypassed the source")
	}
}

// FuzzQuegelVsBFS draws a graph, a worker count, a query list that may cross
// the 64-query run boundary, a checkpoint interval and a crash round, and
// holds every answer to the oracle.
func FuzzQuegelVsBFS(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(2), uint8(16), int64(3), uint8(2), uint8(3))
	f.Add(int64(2), uint8(120), uint8(4), uint8(129), int64(8), uint8(0), uint8(4))  // 130 queries, full restart
	f.Add(int64(3), uint8(90), uint8(7), uint8(64), int64(9), uint8(1), uint8(2))    // 65 queries
	f.Add(int64(4), uint8(0), uint8(0), uint8(0), int64(0), uint8(0), uint8(0))      // one vertex, one query
	f.Add(int64(5), uint8(127), uint8(3), uint8(100), int64(11), uint8(3), uint8(6)) // 101 queries, rollback
	f.Fuzz(func(t *testing.T, graphSeed int64, n, workers, nq uint8, qSeed int64, ckpt, crash uint8) {
		nv := 1 + int(n)%128
		g := gen.ErdosRenyi(nv, int64(2*nv), graphSeed)
		qs := randomQueries(g, 1+int(nq)%130, qSeed)
		cfg := crashCfg(1+int(workers)%8, int(ckpt)%4, int(crash)%8)
		if w := wrongAnswers(t, g, qs, cfg); w > 0 {
			t.Fatalf("%d of %d answers wrong (workers %d, checkpoint every %d, crash at %d)",
				w, len(qs), cfg.Workers, cfg.CheckpointEvery, cfg.Faults.CrashAtRound)
		}
	})
}

// TestLongListRunsInChunks: a 130-query list is answered correctly, and its
// Stats are the sums over its runs of 64, 64 and 2 queries.
func TestLongListRunsInChunks(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 4)
	qs := randomQueries(g, 130, 6)
	cfg := pregel.Config{Workers: 3}
	if w := wrongAnswers(t, g, qs, cfg); w > 0 {
		t.Fatalf("%d of %d answers wrong", w, len(qs))
	}
	_, all, err := AnswerBatched(g, qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for _, r := range [][2]int{{0, 64}, {64, 128}, {128, 130}} {
		_, st, err := AnswerBatched(g, qs[r[0]:r[1]], cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum.Supersteps += st.Supersteps
		sum.Messages += st.Messages
	}
	if all.Supersteps != sum.Supersteps || all.Messages != sum.Messages {
		t.Fatalf("130 queries: %d supersteps, %d messages; runs of 64+64+2 sum to %d, %d",
			all.Supersteps, all.Messages, sum.Supersteps, sum.Messages)
	}
}

// TestBatchAllocations: an 8-query batch on an R-MAT graph allocates per
// run, not per vertex or per message.
func TestBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	g := gen.RMAT(13, 8, 1)
	qs := randomQueries(g, 8, 2)
	cfg := pregel.Config{Workers: 2}
	var err error
	allocs := testing.AllocsPerRun(3, func() { _, _, err = AnswerBatched(g, qs, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 3000 {
		t.Fatalf("an 8-query batch allocates %.0f times, want ≤ 3000", allocs)
	}
	t.Logf("8-query batch on RMAT(13,8): %.0f allocs", allocs)
}
