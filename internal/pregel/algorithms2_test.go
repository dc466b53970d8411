package pregel

import (
	"math"
	"math/rand"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/refmodel"
)

func TestLabelPropagationFindsCommunities(t *testing.T) {
	c := gen.PlantedPartitionSparse(300, 3, 14, 0.3, 4)
	labels, _ := LabelPropagation(c.Graph, 10, Config{Workers: 4})
	// measure agreement: most vertices in a community share the mode label
	agree := 0
	for comm := 0; comm < 3; comm++ {
		counts := map[int32]int{}
		size := 0
		for v := 0; v < 300; v++ {
			if c.Membership[v] == comm {
				counts[labels[v]]++
				size++
			}
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		agree += best
		_ = size
	}
	if float64(agree)/300 < 0.7 {
		t.Fatalf("label propagation community agreement %.2f", float64(agree)/300)
	}
}

func TestKCoreMatchesSerialCoreNumbers(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(200, 800, seed)
		cores := graph.CoreNumbers(g)
		for _, k := range []int32{2, 4, 6} {
			member, _ := KCore(g, k, Config{Workers: 4})
			for v := 0; v < 200; v++ {
				want := cores[v] >= k
				if member[v] != want {
					t.Fatalf("seed %d k=%d vertex %d: member=%v core=%d", seed, k, v, member[v], cores[v])
				}
			}
		}
	}
}

func TestKCoreEmptyWhenKTooLarge(t *testing.T) {
	g := gen.Grid(5, 5) // max core 2
	member, _ := KCore(g, 3, Config{Workers: 2})
	for v, m := range member {
		if m {
			t.Fatalf("vertex %d in nonexistent 3-core of a grid", v)
		}
	}
}

func TestPageRankConverged(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 2)
	exact, _, _ := PageRank(g, 60, Config{Workers: 4})
	ranks, iters, _ := PageRankConverged(g, 1e-6, 100, Config{Workers: 4})
	if iters >= 100 {
		t.Fatalf("did not converge within bound (%d iters)", iters)
	}
	var maxDiff float64
	for v := range exact {
		if d := math.Abs(exact[v] - ranks[v]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Fatalf("converged ranks deviate by %g", maxDiff)
	}
	// looser eps should stop earlier
	_, fewIters, _ := PageRankConverged(g, 1e-2, 100, Config{Workers: 4})
	if fewIters >= iters {
		t.Fatalf("eps=1e-2 used %d iters, eps=1e-6 used %d", fewIters, iters)
	}
}

func TestWeightedSSSPMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for seed := 0; seed < 3; seed++ {
		b := graph.NewBuilder(150, false)
		for i := 0; i < 500; i++ {
			u, v := rng.Intn(150), rng.Intn(150)
			if u != v {
				b.AddLabeledEdge(graph.V(u), graph.V(v), int32(1+rng.Intn(9)))
			}
		}
		g := b.Build()
		want := refmodel.Dijkstra(g, 0)
		got, _, _ := WeightedSSSP(g, 0, Config{Workers: 4})
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("seed %d vertex %d: pregel %d dijkstra %d", seed, v, got[v], want[v])
			}
		}
	}
}

func TestWeightedSSSPUnitWeightsEqualBFS(t *testing.T) {
	g := gen.ErdosRenyi(120, 360, 3) // unlabeled: weight defaults to 1
	want := refmodel.BFS(g, 5)
	got, _, _ := WeightedSSSP(g, 5, Config{Workers: 4})
	for v := range want {
		w := int64(want[v])
		if got[v] != w {
			t.Fatalf("vertex %d: %d vs BFS %d", v, got[v], w)
		}
	}
}
