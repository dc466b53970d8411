package graphd

import (
	"math"
	"path/filepath"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/refmodel"
	"graphsys/internal/storage"
)

func spillBlocks(t *testing.T, g *graph.Graph) *BlockFile {
	t.Helper()
	bf, err := SpillBlocks(g, filepath.Join(t.TempDir(), "g.gsb"), storage.Options{BlockBytes: 1 << 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	return bf
}

// TestBlockCCMatchesSpec: the block engine's labels are refmodel.CC's and
// its pass count is refmodel.ScanCC's; resident state is O(|V|), below the
// in-memory CSR the file replaces, and every pass reads the same bytes (a
// scan streams the blocks through a private buffer, bypassing the cache).
func TestBlockCCMatchesSpec(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(300, 350, seed)
		bf := spillBlocks(t, g)
		got, st, err := bf.ConnectedComponents()
		if err != nil {
			t.Fatal(err)
		}
		want := refmodel.CC(g)
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("seed %d: label[%d] = %d, spec %d", seed, v, got[v], want[v])
			}
		}
		if _, passes := refmodel.ScanCC(g); st.Passes != passes {
			t.Fatalf("seed %d: %d passes, spec %d", seed, st.Passes, passes)
		}
		if csr := int64(g.NumVertices()+1)*8 + g.NumArcs()*4; st.ResidentBytes >= csr {
			t.Fatalf("seed %d: resident %d B not below the %d B in-memory CSR", seed, st.ResidentBytes, csr)
		}
		_, one, err := bf.PageRank(1)
		if err != nil {
			t.Fatal(err)
		}
		if one.BytesRead <= 0 || st.BytesRead != int64(st.Passes)*one.BytesRead {
			t.Fatalf("seed %d: %d bytes over %d passes, one pass reads %d", seed, st.BytesRead, st.Passes, one.BytesRead)
		}
	}
}

// TestBlockPageRankMatchesSpec requires bitwise-identical ranks: the block
// scan sums in refmodel.ScanPageRank's order with the same float operations,
// and the resident degree table saves a degree pass.
func TestBlockPageRankMatchesSpec(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 3)
	bf := spillBlocks(t, g)
	const iters = 20
	want := refmodel.ScanPageRank(g, iters)
	got, st, err := bf.PageRank(iters)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("rank[%d] = %v, spec %v", v, got[v], want[v])
		}
	}
	if st.Passes != iters {
		t.Fatalf("%d passes, want %d", st.Passes, iters)
	}
	// per-pass bytes are the compressed blocks exactly
	if st.BytesRead != int64(iters)*(st.BytesRead/int64(iters)) || st.BytesRead <= 0 {
		t.Fatalf("block bytes read %d", st.BytesRead)
	}
}

// TestOpenBlocksReopens covers the open-existing path: a block file written
// once and reopened by a later run.
func TestOpenBlocksReopens(t *testing.T) {
	g := gen.Grid(8, 8)
	path := filepath.Join(t.TempDir(), "grid.gsb")
	bf, err := SpillBlocks(g, path, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
	bf2, err := OpenBlocks(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf2.Close()
	if bf2.NumVertices() != 64 || bf2.NumArcs() != g.NumArcs() {
		t.Fatalf("reopened geometry: %d vertices %d arcs", bf2.NumVertices(), bf2.NumArcs())
	}
}
