package gnn

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/storage"
)

// openBlocks writes g to a block file of blockBytes-sized blocks and opens it
// for one worker whose cache holds budgetBlocks of the largest decoded block.
func openBlocks(t testing.TB, g *graph.Graph, blockBytes int, budgetBlocks int64) *storage.CachedProvider {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, g, storage.Options{BlockBytes: blockBytes})
	if err != nil {
		t.Fatalf("storage.Write: %v", err)
	}
	p, err := storage.OpenCached(path, info.ResidentBytes+budgetBlocks*info.MaxDecodedBytes, 1, storage.LRU)
	if err != nil {
		t.Fatalf("storage.OpenCached: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// sameSample reports how two samples differ: in the CSR (shape and every
// neighbor list), in NewToOld or in SeedLoc. Vertex labels are not compared;
// block files carry none.
func sameSample(a, b *SampledSubgraph) string {
	ga, gb := a.Graph, b.Graph
	if ga.Directed() != gb.Directed() || ga.NumVertices() != gb.NumVertices() || ga.NumArcs() != gb.NumArcs() {
		return "CSR shape differs"
	}
	for v := graph.V(0); int(v) < ga.NumVertices(); v++ {
		if !slices.Equal(ga.Neighbors(v), gb.Neighbors(v)) {
			return "CSR neighbor lists differ"
		}
	}
	if !slices.Equal(a.NewToOld, b.NewToOld) {
		return "NewToOld differs"
	}
	if !slices.Equal(a.SeedLoc, b.SeedLoc) {
		return "SeedLoc differs"
	}
	return ""
}

// inducedDiff reports how sub differs from g's subgraph induced by
// sub.NewToOld: graph.InducedSubgraph is the independent oracle of
// inducedFromSource.
func inducedDiff(g *graph.Graph, sub *SampledSubgraph) string {
	ig, newToOld := g.InducedSubgraph(sub.NewToOld)
	return sameSample(sub, &SampledSubgraph{Graph: ig, NewToOld: newToOld, SeedLoc: sub.SeedLoc})
}

// TestNeighborSampleSourceBlockOrder: over a cache that holds one block,
// sampling from disk gives the in-memory sample with the same number of rng
// draws, and every pass over the source (one per hop, one for the induced
// subgraph) misses each block at most once. The subgraph is the one that
// graph.InducedSubgraph induces.
func TestNeighborSampleSourceBlockOrder(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 6, 1)
	prov := openBlocks(t, g, 1<<10, 1)
	h := prov.Handle(0)
	blocks := int64(prov.File().NumBlocks())
	pick := rand.New(rand.NewSource(2))
	for _, fanouts := range [][]int{{5, 5}, {10, 10}} {
		for set := 0; set < 50; set++ {
			seeds := make([]graph.V, 16)
			for i, v := range pick.Perm(g.NumVertices())[:len(seeds)] {
				seeds[i] = graph.V(v)
			}
			diskRng, memRng := rand.New(rand.NewSource(int64(set))), rand.New(rand.NewSource(int64(set)))
			before := h.Stats()
			disk, err := NeighborSampleSource(h, seeds, fanouts, diskRng)
			if err != nil {
				t.Fatalf("fanouts %v set %d: %v", fanouts, set, err)
			}
			misses := h.Stats().Sub(before).Misses
			mem := NeighborSample(g, seeds, fanouts, memRng)
			if d := sameSample(disk, mem); d != "" {
				t.Fatalf("fanouts %v set %d: disk and in-memory samples differ: %s", fanouts, set, d)
			}
			if d := inducedDiff(g, disk); d != "" {
				t.Fatalf("fanouts %v set %d: sample and induced subgraph differ: %s", fanouts, set, d)
			}
			if a, b := diskRng.Int63(), memRng.Int63(); a != b {
				t.Fatalf("fanouts %v set %d: rngs diverge after sampling (%d vs %d): draw counts differ", fanouts, set, a, b)
			}
			if bound := int64(len(fanouts)+1) * blocks; misses > bound {
				t.Fatalf("fanouts %v set %d: %d block misses, want at most %d (%d passes × %d blocks)",
					fanouts, set, misses, bound, len(fanouts)+1, blocks)
			}
		}
	}
}

// TestNeighborSampleSourceCorruptBlock: with one payload byte of the last
// block flipped, every sample either equals the in-memory one (it never read
// that block) or fails with a wrapped storage.ErrCorrupt and no subgraph.
// A sample seeded in the last block must fail, and every other one is the
// subgraph that graph.InducedSubgraph induces.
func TestNeighborSampleSourceCorruptBlock(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 2)
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, g, storage.Options{BlockBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	flipLastPayloadByte(t, path)
	prov, err := storage.OpenCached(path, info.ResidentBytes+4*info.MaxDecodedBytes, 1, storage.LRU)
	if err != nil {
		t.Fatalf("OpenCached after corruption: %v", err)
	}
	defer prov.Close()
	h := prov.Handle(0)
	last := graph.V(g.NumVertices() - 1)
	pick := rand.New(rand.NewSource(3))
	failed := 0
	for set := 0; set < 20; set++ {
		seeds := []graph.V{graph.V(pick.Intn(g.NumVertices())), graph.V(pick.Intn(g.NumVertices()))}
		if set == 0 {
			seeds = []graph.V{last}
		}
		sub, err := NeighborSampleSource(h, seeds, []int{5, 5}, rand.New(rand.NewSource(int64(set))))
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("set %d: got %v, want a wrapped storage.ErrCorrupt", set, err)
			}
			if sub != nil {
				t.Fatalf("set %d: a failed sample returned a subgraph", set)
			}
			failed++
			continue
		}
		if d := sameSample(sub, NeighborSample(g, seeds, []int{5, 5}, rand.New(rand.NewSource(int64(set))))); d != "" {
			t.Fatalf("set %d: sample that read no corrupt block differs from in-memory: %s", set, d)
		}
		if d := inducedDiff(g, sub); d != "" {
			t.Fatalf("set %d: sample and induced subgraph differ: %s", set, d)
		}
		if set == 0 {
			t.Fatalf("a sample seeded at vertex %d, in the corrupt last block, succeeded", last)
		}
	}
	t.Logf("%d of 20 samples hit the corrupt block", failed)
}

// flipLastPayloadByte corrupts the block file at path in the last byte of
// its last block's payload (the file ends with that block's 4-byte CRC), so
// the file still opens and the block fails its checksum when read.
func flipLastPayloadByte(t testing.TB, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzNeighborSampleSource: over any graph (directed or not), block size,
// cache budget, seed list (duplicates allowed), fanouts and rng seed, the
// disk sample is bitwise the in-memory sample and the subgraph that
// graph.InducedSubgraph induces, both rngs end in the same state, and each
// pass misses each block at most once.
func FuzzNeighborSampleSource(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(3), false, uint16(256), uint8(1), int64(2), uint8(8), []byte{5, 5}, int64(3))
	f.Add(int64(2), uint8(127), uint8(7), true, uint16(64), uint8(2), int64(4), uint8(3), []byte{10, 2, 4}, int64(5))
	f.Add(int64(3), uint8(0), uint8(0), false, uint16(0), uint8(0), int64(0), uint8(0), []byte{}, int64(0))
	f.Add(int64(4), uint8(90), uint8(1), true, uint16(2000), uint8(7), int64(6), uint8(40), []byte{0, 15}, int64(7))
	f.Fuzz(func(t *testing.T, graphSeed int64, n, deg uint8, directed bool, blockBytes uint16, budget uint8,
		seedSeed int64, nSeeds uint8, fanoutBytes []byte, rngSeed int64) {
		nv := 1 + int(n)%128
		gr := rand.New(rand.NewSource(graphSeed))
		b := graph.NewBuilder(nv, directed)
		for i := 0; i < nv*(int(deg)%8); i++ {
			b.AddEdge(graph.V(gr.Intn(nv)), graph.V(gr.Intn(nv)))
		}
		g := b.Build()
		prov := openBlocks(t, g, 16+int(blockBytes)%2048, 1+int64(budget)%8)
		h := prov.Handle(0)
		sr := rand.New(rand.NewSource(seedSeed))
		seeds := make([]graph.V, 1+int(nSeeds)%48)
		for i := range seeds {
			seeds[i] = graph.V(sr.Intn(nv))
		}
		fanouts := make([]int, min(len(fanoutBytes), 3))
		for i := range fanouts {
			fanouts[i] = int(fanoutBytes[i]) % 16
		}
		diskRng, memRng := rand.New(rand.NewSource(rngSeed)), rand.New(rand.NewSource(rngSeed))
		disk, err := NeighborSampleSource(h, seeds, fanouts, diskRng)
		if err != nil {
			t.Fatalf("NeighborSampleSource: %v", err)
		}
		mem := NeighborSample(g, seeds, fanouts, memRng)
		if d := sameSample(disk, mem); d != "" {
			t.Fatalf("disk and in-memory samples differ: %s", d)
		}
		if d := inducedDiff(g, disk); d != "" {
			t.Fatalf("sample and induced subgraph differ: %s", d)
		}
		if diskRng.Int63() != memRng.Int63() {
			t.Fatal("rngs diverge after sampling: draw counts differ")
		}
		if misses, bound := h.Stats().Misses, int64(len(fanouts)+1)*int64(prov.File().NumBlocks()); misses > bound {
			t.Fatalf("%d block misses, want at most %d", misses, bound)
		}
	})
}
