package gthinkerq

import (
	"errors"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/match"
	"graphsys/internal/serve"
)

var (
	triangle = graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})
	edge     = graph.FromEdges(2, [][2]graph.V{{0, 1}})
	clique5  = gen.Clique(5)
)

// newRoundRobin starts a round-robin engine over g that the test closes.
func newRoundRobin(t *testing.T, g *graph.Graph, workers int) *Engine {
	t.Helper()
	eng, err := NewEngine(g, serve.Options{Workers: workers, Policy: serve.RoundRobin})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

func submit(t *testing.T, eng *Engine, p *graph.Graph) *serve.Ticket[int64] {
	t.Helper()
	tk, err := eng.Submit(serve.Request[*graph.Graph]{Query: p})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return tk
}

func TestConcurrentQueries(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 2)
	eng := newRoundRobin(t, g, 8)
	// submit a burst of queries of mixed weight
	var tks []*serve.Ticket[int64]
	for i := 0; i < 10; i++ {
		p := edge
		if i%2 == 0 {
			p = triangle
		}
		tks = append(tks, submit(t, eng, p))
	}
	wantEdge, _ := match.Count(g, match.OptimizedPlan(edge), 4)
	wantTri, _ := match.Count(g, match.OptimizedPlan(triangle), 4)
	for i, tk := range tks {
		got, err := tk.Wait()
		want := wantEdge
		if i%2 == 0 {
			want = wantTri
		}
		if err != nil || got != want {
			t.Fatalf("query %d: got (%d, %v), want (%d, nil)", i, got, err, want)
		}
		if tk.Latency() <= 0 {
			t.Fatalf("query %d: nonpositive latency", i)
		}
	}
}

func TestHeavyQueryDoesNotBlockLight(t *testing.T) {
	g := gen.BarabasiAlbert(800, 10, 3)
	eng := newRoundRobin(t, g, 4)
	heavy := submit(t, eng, clique5) // expensive on a dense hub graph
	light := submit(t, eng, edge)
	// the light query must complete; if it had to wait for the heavy one
	// this would take far longer (covered quantitatively in the benchmark)
	if n, err := light.Wait(); err != nil || n == 0 {
		t.Fatalf("light query: (%d, %v), want a positive count", n, err)
	}
	if _, err := heavy.Wait(); err != nil {
		t.Fatalf("heavy query: %v", err)
	}
}

func TestEmptyAndUnmatchablePatterns(t *testing.T) {
	g := gen.Grid(4, 4)
	eng := newRoundRobin(t, g, 2)
	// triangle in a grid: no roots survive at depth 2+; a pattern needing
	// degree 5 in a grid (max degree 4) has no feasible roots
	star5 := graph.FromEdges(6, [][2]graph.V{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	for name, p := range map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0, false).Build(),
		"triangle": triangle,
		"star5":    star5,
	} {
		if n, err := submit(t, eng, p).Wait(); err != nil || n != 0 {
			t.Fatalf("%s in grid = (%d, %v), want (0, nil)", name, n, err)
		}
	}
}

func TestQueryCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 12, 7)
	eng := newRoundRobin(t, g, 2)
	heavy := submit(t, eng, clique5)
	heavy.Cancel()
	// the query must still complete (tasks drain as no-ops)
	if _, err := heavy.Wait(); err != nil && !errors.Is(err, serve.ErrCanceled) {
		t.Fatalf("canceled query: %v, want nil or ErrCanceled", err)
	}
	if !heavy.Canceled() {
		t.Fatal("cancel flag lost")
	}
	// the engine keeps serving other queries afterwards
	if n, err := submit(t, eng, triangle).Wait(); err != nil || n == 0 {
		t.Fatalf("engine unusable after cancellation: (%d, %v)", n, err)
	}
}
