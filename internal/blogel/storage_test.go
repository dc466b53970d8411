package blogel

import (
	"path/filepath"
	"slices"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/partition"
	"graphsys/internal/storage"
)

// TestBuildSourceDiskMatchesMemory pins the equivalence contract: the block
// decomposition, quotient graph (every block's neighbour list) and CC labels
// built from a block file through a bounded cache must be identical to those
// built from storage.InMemory.
func TestBuildSourceDiskMatchesMemory(t *testing.T) {
	g := gen.RMAT(10, 6, 41)
	part := partition.Hash(g, 4)
	mem := build(t, g, part)

	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, g, storage.Options{BlockBytes: 1 << 11})
	if err != nil {
		t.Fatalf("storage.Write: %v", err)
	}
	prov, err := storage.OpenCached(path, info.ResidentBytes+4*info.MaxDecodedBytes, 1, storage.MRU)
	if err != nil {
		t.Fatalf("storage.OpenCached: %v", err)
	}
	defer prov.Close()
	disk, err := BuildSource(prov.Handle(0), part)
	if err != nil {
		t.Fatalf("BuildSource: %v", err)
	}

	if disk.NumBlock != mem.NumBlock {
		t.Fatalf("block counts differ: mem %d disk %d", mem.NumBlock, disk.NumBlock)
	}
	for v := range mem.BlockOf {
		if mem.BlockOf[v] != disk.BlockOf[v] {
			t.Fatalf("BlockOf[%d] differs: mem %d disk %d", v, mem.BlockOf[v], disk.BlockOf[v])
		}
	}
	mq, dq := mem.Quotient, disk.Quotient
	if mq.NumVertices() != dq.NumVertices() || mq.NumArcs() != dq.NumArcs() {
		t.Fatalf("quotients differ: mem (%d,%d) disk (%d,%d)",
			mq.NumVertices(), mq.NumArcs(), dq.NumVertices(), dq.NumArcs())
	}
	for q := 0; q < mq.NumVertices(); q++ {
		if mn, dn := mq.Neighbors(graph.V(q)), dq.Neighbors(graph.V(q)); !slices.Equal(mn, dn) {
			t.Fatalf("quotient vertex %d's neighbours differ: mem %v disk %v", q, mn, dn)
		}
	}
	if prov.Stats().BlocksRead == 0 {
		t.Fatal("disk build read no blocks")
	}

	memCC, err := mem.ConnectedComponents(2)
	if err != nil {
		t.Fatal(err)
	}
	diskCC, err := disk.ConnectedComponents(2)
	if err != nil {
		t.Fatal(err)
	}
	if memCC.Supersteps != diskCC.Supersteps || memCC.Messages != diskCC.Messages {
		t.Fatalf("CC runs differ: mem (%d,%d) disk (%d,%d)",
			memCC.Supersteps, memCC.Messages, diskCC.Supersteps, diskCC.Messages)
	}
	for v := range memCC.Labels {
		if memCC.Labels[v] != diskCC.Labels[v] {
			t.Fatalf("label[%d] differs: mem %d disk %d", v, memCC.Labels[v], diskCC.Labels[v])
		}
	}
}
