package gen

import (
	"testing"

	"graphsys/internal/graph"
)

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 300, 1)
	if g.NumVertices() != 100 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() != 300 {
		t.Fatalf("m=%d want 300 (distinct edges)", g.NumEdges())
	}
	// determinism
	g2 := ErdosRenyi(100, 300, 1)
	if g2.NumEdges() != g.NumEdges() || g2.NumArcs() != g.NumArcs() {
		t.Fatal("not deterministic")
	}
}

func TestBarabasiAlbertSkew(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 42)
	if g.NumVertices() != 2000 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// preferential attachment must produce hubs: max degree far above average
	if avg := avgDegree(g); float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("no hubs: max=%d avg=%.1f", g.MaxDegree(), avg)
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 7)
	if g.NumVertices() != 1024 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
	// RMAT with Graph500 params is skewed
	if avg := avgDegree(g); float64(g.MaxDegree()) < 3*avg {
		t.Fatalf("RMAT not skewed: max=%d avg=%.1f", g.MaxDegree(), avg)
	}
}

func avgDegree(g *graph.Graph) float64 {
	return float64(g.NumArcs()) / float64(g.NumVertices())
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(200, 6, 0.05, 3)
	if g.NumVertices() != 200 {
		t.Fatalf("n=%d", g.NumVertices())
	}
	// With low rewiring the lattice keeps high clustering: its transitivity,
	// 3·triangles / wedges, stays well above a random graph's.
	var wedges int64
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	if cc := 3 * float64(graph.TriangleCount(g)) / float64(wedges); cc < 0.2 {
		t.Fatalf("small-world clustering too low: %f", cc)
	}
}

func TestPlantedPartitionSparse(t *testing.T) {
	c := PlantedPartitionSparse(1000, 4, 8, 1, 6)
	if c.Graph.NumVertices() != 1000 {
		t.Fatal("n wrong")
	}
	intra, inter := 0, 0
	c.Graph.EdgesOnce(func(u, v graph.V) {
		if c.Membership[u] == c.Membership[v] {
			intra++
		} else {
			inter++
		}
	})
	if intra <= 2*inter {
		t.Fatalf("sparse communities not assortative: intra=%d inter=%d", intra, inter)
	}
}

func TestGridAndClique(t *testing.T) {
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("grid n=%d", g.NumVertices())
	}
	// 3x4 grid: 3*3 horizontal + 2*4 vertical = 17 edges
	if g.NumEdges() != 17 {
		t.Fatalf("grid m=%d want 17", g.NumEdges())
	}
	if graph.TriangleCount(g) != 0 {
		t.Fatal("grid has no triangles")
	}
	k := Clique(6)
	if k.NumEdges() != 15 {
		t.Fatalf("K6 m=%d", k.NumEdges())
	}
}

func TestWithRandomLabels(t *testing.T) {
	g := Grid(4, 4)
	lg := WithRandomLabels(g, 3, 9)
	if !lg.HasLabels() {
		t.Fatal("no labels")
	}
	if lg.NumEdges() != g.NumEdges() {
		t.Fatal("edges changed")
	}
	for v := graph.V(0); int(v) < lg.NumVertices(); v++ {
		if l := lg.Label(v); l < 0 || l >= 3 {
			t.Fatalf("label out of range: %d", l)
		}
	}
}

func TestMoleculeDB(t *testing.T) {
	db := MoleculeDB(40, 10, 4, 0.9, 11)
	if db.Len() != 40 {
		t.Fatalf("len=%d", db.Len())
	}
	ones := 0
	for _, c := range db.Class {
		if c == 1 {
			ones++
		}
	}
	if ones != 20 {
		t.Fatalf("class balance: %d ones", ones)
	}
	// class-1 graphs should frequently contain the distinguished label
	motifGraphs := 0
	for i, g := range db.Graphs {
		if db.Class[i] != 1 {
			continue
		}
		for v := graph.V(0); int(v) < g.NumVertices(); v++ {
			if g.Label(v) == 4 { // numLabels is the distinguished label
				motifGraphs++
				break
			}
		}
	}
	if motifGraphs < 10 {
		t.Fatalf("motif planted in only %d/20 class-1 graphs", motifGraphs)
	}
}

// TestMoleculeDBEdgeLabelsSymmetric checks that every undirected edge of
// the molecule databases the experiments mine reads one label in both
// directions, though MoleculeDB adds some edges twice with two labels.
func TestMoleculeDBEdgeLabelsSymmetric(t *testing.T) {
	for _, c := range []struct {
		n, per, labels int
		motif          float64
		seed           int64
	}{{100, 9, 4, 0.95, 123}, {60, 8, 3, 0.95, 11}, {120, 10, 4, 0.9, 9}} {
		asym := 0
		for _, g := range MoleculeDB(c.n, c.per, c.labels, c.motif, c.seed).Graphs {
			g.EdgesOnce(func(u, v graph.V) {
				if g.EdgeLabel(u, v) != g.EdgeLabel(v, u) {
					asym++
				}
			})
		}
		if asym != 0 {
			t.Errorf("MoleculeDB%v: %d edges with a different label in each direction", c, asym)
		}
	}
}

func TestGeneratorsConnectivityShape(t *testing.T) {
	// BA graphs are connected by construction
	g := BarabasiAlbert(300, 2, 1)
	_, comps := graph.ConnectedComponents(g)
	if comps != 1 {
		t.Fatalf("BA graph has %d components", comps)
	}
}
