package graph_test

import (
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/refmodel"
)

// TestBFSLevels pins the BFS oracle on a path and on a graph with an
// unreachable vertex; it lives in the external test package because the
// oracle, refmodel.BFS, imports graph.
func TestBFSLevels(t *testing.T) {
	g := graph.FromEdges(5, [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	lv := refmodel.BFS(g, 0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if lv[i] != want {
			t.Fatalf("level[%d]=%d want %d", i, lv[i], want)
		}
	}
	// unreachable
	g2 := graph.FromEdges(3, [][2]graph.V{{0, 1}})
	lv2 := refmodel.BFS(g2, 0)
	if lv2[2] != -1 {
		t.Fatalf("unreachable vertex level = %d", lv2[2])
	}
}
