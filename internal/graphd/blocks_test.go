package graphd

import (
	"math"
	"path/filepath"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
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

// TestBlockCCMatchesEdgeFile pins the rebuild contract: the block-CSR engine
// produces the same labels in the same number of passes as the raw EdgeFile
// engine, while reading fewer bytes per pass (compression) from a smaller
// file.
func TestBlockCCMatchesEdgeFile(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gen.ErdosRenyi(300, 350, seed)
		ef := spill(t, g)
		bf := spillBlocks(t, g)
		want, wantSt, err := ef.ConnectedComponents(300)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := bf.ConnectedComponents()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("seed %d: label[%d] differs: edge %d block %d", seed, v, want[v], got[v])
			}
		}
		if wantSt.Passes != gotSt.Passes {
			t.Fatalf("seed %d: passes differ: edge %d block %d", seed, wantSt.Passes, gotSt.Passes)
		}
		if gotSt.BytesRead >= wantSt.BytesRead {
			t.Fatalf("seed %d: block engine read %d bytes, raw edge engine %d — no compression win",
				seed, gotSt.BytesRead, wantSt.BytesRead)
		}
		if bf.FileBytes() >= ef.Bytes {
			t.Fatalf("seed %d: block file %d B not smaller than edge file %d B", seed, bf.FileBytes(), ef.Bytes)
		}
	}
}

// TestBlockPageRankMatchesEdgeFile requires bitwise-identical ranks: both
// engines visit arcs in the same order with the same float operations, so
// the sums must agree exactly — and the block engine saves EdgeFile's
// up-front degree pass.
func TestBlockPageRankMatchesEdgeFile(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 3)
	ef := spill(t, g)
	bf := spillBlocks(t, g)
	const iters = 20
	want, wantSt, err := ef.PageRank(200, iters)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := bf.PageRank(iters)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("rank[%d] differs: edge %v block %v", v, want[v], got[v])
		}
	}
	if wantSt.Passes != iters+1 || gotSt.Passes != iters {
		t.Fatalf("pass counts: edge %d (want %d), block %d (want %d)", wantSt.Passes, iters+1, gotSt.Passes, iters)
	}
	// per-pass bytes are the compressed blocks exactly
	if gotSt.BytesRead != int64(iters)*(gotSt.BytesRead/int64(iters)) || gotSt.BytesRead <= 0 {
		t.Fatalf("block bytes read %d", gotSt.BytesRead)
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
