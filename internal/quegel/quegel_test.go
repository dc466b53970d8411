package quegel

import (
	"math/rand"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/pregel"
	"graphsys/internal/refmodel"
)

func TestBatchedMatchesSequential(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 1)
	rng := rand.New(rand.NewSource(2))
	var queries []Query
	for i := 0; i < 12; i++ {
		queries = append(queries, Query{
			Src: graph.V(rng.Intn(300)), Dst: graph.V(rng.Intn(300)),
		})
	}
	cfg := pregel.Config{Workers: 4}
	batched, bstats, err := AnswerBatched(g, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sequential, sstats, err := AnswerSequential(g, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if batched[i].Dist != sequential[i].Dist {
			t.Fatalf("query %d: batched %d vs sequential %d", i, batched[i].Dist, sequential[i].Dist)
		}
		// cross-check against serial BFS
		want := refmodel.BFS(g, queries[i].Src)[queries[i].Dst]
		if batched[i].Dist != want {
			t.Fatalf("query %d: %d, BFS says %d", i, batched[i].Dist, want)
		}
	}
	// superstep sharing: batched rounds = max per-query, not sum
	if bstats.Supersteps >= sstats.Supersteps/3 {
		t.Fatalf("batched %d rounds not well below sequential %d", bstats.Supersteps, sstats.Supersteps)
	}
}

func TestUnreachableQuery(t *testing.T) {
	g := graph.FromEdges(4, [][2]graph.V{{0, 1}, {2, 3}})
	ans, _, _ := AnswerBatched(g, []Query{{Src: 0, Dst: 3}, {Src: 0, Dst: 1}, {Src: 2, Dst: 2}},
		pregel.Config{Workers: 2})
	if ans[0].Dist != -1 {
		t.Fatalf("cross-component distance %d", ans[0].Dist)
	}
	if ans[1].Dist != 1 {
		t.Fatalf("adjacent distance %d", ans[1].Dist)
	}
	if ans[2].Dist != 0 {
		t.Fatalf("self distance %d", ans[2].Dist)
	}
}
