package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

func checkValid(t *testing.T, p *Partition, n, k int) {
	t.Helper()
	if len(p.Assign) != n {
		t.Fatalf("assign length %d want %d", len(p.Assign), n)
	}
	for v, a := range p.Assign {
		if a < 0 || a >= k {
			t.Fatalf("vertex %d assigned to %d (k=%d)", v, a, k)
		}
	}
}

func TestHashPartition(t *testing.T) {
	g := gen.Grid(10, 10)
	p := Hash(g, 4)
	checkValid(t, p, 100, 4)
	if p.Imbalance() > 1.5 {
		t.Fatalf("hash imbalance %f", p.Imbalance())
	}
}

func TestRangePartitionOnGrid(t *testing.T) {
	g := gen.Grid(10, 10)
	pr := Range(g, 4)
	ph := Hash(g, 4)
	checkValid(t, pr, 100, 4)
	// range respects grid locality far better than hash
	if pr.EdgeCut(g) >= ph.EdgeCut(g) {
		t.Fatalf("range cut %d >= hash cut %d on grid", pr.EdgeCut(g), ph.EdgeCut(g))
	}
}

func TestLDGBeatsHashOnCommunities(t *testing.T) {
	c := gen.PlantedPartitionSparse(800, 4, 10, 1, 3)
	pl := LDG(c.Graph, 4)
	ph := Hash(c.Graph, 4)
	checkValid(t, pl, 800, 4)
	if pl.Imbalance() > 1.6 {
		t.Fatalf("LDG imbalance %f", pl.Imbalance())
	}
	if pl.EdgeCut(c.Graph) >= ph.EdgeCut(c.Graph) {
		t.Fatalf("LDG cut %d >= hash cut %d", pl.EdgeCut(c.Graph), ph.EdgeCut(c.Graph))
	}
}

func TestMetisQuality(t *testing.T) {
	c := gen.PlantedPartitionSparse(1000, 4, 12, 1, 7)
	pm := Metis(c.Graph, 4)
	ph := Hash(c.Graph, 4)
	checkValid(t, pm, 1000, 4)
	if pm.Imbalance() > 1.8 {
		t.Fatalf("metis imbalance %f", pm.Imbalance())
	}
	cm, chh := pm.EdgeCut(c.Graph), ph.EdgeCut(c.Graph)
	if cm >= chh {
		t.Fatalf("metis cut %d >= hash cut %d", cm, chh)
	}
	// multilevel should cut well under half of hash's cut on a community graph
	if float64(cm) > 0.6*float64(chh) {
		t.Logf("warning: metis cut %d vs hash %d weaker than expected", cm, chh)
	}
}

func TestMetisOnTinyAndEdgelessGraphs(t *testing.T) {
	empty := graph.NewBuilder(10, false).Build()
	p := Metis(empty, 3)
	checkValid(t, p, 10, 3)

	k3 := gen.Clique(3)
	p2 := Metis(k3, 2)
	checkValid(t, p2, 3, 2)
}

func TestBFSVoronoi(t *testing.T) {
	c := gen.PlantedPartitionSparse(600, 6, 10, 0.5, 9)
	// one seed in each community
	var seeds []graph.V
	seen := map[int]bool{}
	for v := 0; v < 600; v++ {
		if !seen[c.Membership[v]] {
			seen[c.Membership[v]] = true
			seeds = append(seeds, graph.V(v))
		}
	}
	p := BFSVoronoi(c.Graph, seeds, 3)
	checkValid(t, p, 600, 3)
	ph := Hash(c.Graph, 3)
	if p.EdgeCut(c.Graph) >= ph.EdgeCut(c.Graph) {
		t.Fatalf("voronoi cut %d >= hash cut %d", p.EdgeCut(c.Graph), ph.EdgeCut(c.Graph))
	}
}

func TestBFSVoronoiUnreachable(t *testing.T) {
	// two disjoint triangles, seed only in the first
	g := graph.FromEdges(6, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	p := BFSVoronoi(g, []graph.V{0}, 2)
	checkValid(t, p, 6, 2)
}

func TestFeatureDim(t *testing.T) {
	fd := NewFeatureDim(10, 4)
	total := 0
	for w := 0; w < 4; w++ {
		width := fd.Hi[w] - fd.Lo[w]
		if width < 2 || width > 3 {
			t.Fatalf("worker %d width %d", w, width)
		}
		total += width
	}
	if total != 10 {
		t.Fatalf("widths sum to %d", total)
	}
	if fd.Lo[0] != 0 || fd.Hi[3] != 10 {
		t.Fatal("dims not covering [0,10)")
	}
}

func TestImbalanceAndSizes(t *testing.T) {
	p := &Partition{Assign: []int{0, 0, 0, 1}, K: 2}
	s := p.Sizes()
	if s[0] != 3 || s[1] != 1 {
		t.Fatalf("sizes %v", s)
	}
	if p.Imbalance() != 1.5 {
		t.Fatalf("imbalance %f", p.Imbalance())
	}
}

func TestPartitionersValidProperty(t *testing.T) {
	// property: every partitioner yields a complete, in-range assignment on
	// arbitrary random graphs, and Sizes() sums to n
	f := func(seedRaw uint16, kRaw uint8) bool {
		seed := int64(seedRaw)
		k := 2 + int(kRaw%6)
		n := 30 + int(seedRaw%120)
		g := gen.ErdosRenyi(n, int64(2*n), seed)
		for _, p := range []*Partition{
			Hash(g, k), Range(g, k), LDG(g, k), Metis(g, k),
			BFSVoronoi(g, []graph.V{0, graph.V(n / 2)}, k),
		} {
			if len(p.Assign) != n || p.K != k {
				return false
			}
			total := 0
			for _, s := range p.Sizes() {
				total += s
			}
			if total != n {
				return false
			}
			for _, a := range p.Assign {
				if a < 0 || a >= k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
