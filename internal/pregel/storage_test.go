package pregel

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/storage"
)

// openDisk writes g to a block file and returns a cached provider sized to
// roughly half the decoded graph, so the run actually exercises eviction.
func openDisk(t *testing.T, g *graph.Graph, workers int, pol storage.EvictPolicy) *storage.CachedProvider {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, g, storage.Options{BlockBytes: 1 << 11})
	if err != nil {
		t.Fatalf("storage.Write: %v", err)
	}
	budget := info.ResidentBytes + info.RawCSRBytes/2
	if min := info.ResidentBytes + int64(workers)*info.MaxDecodedBytes; budget < min {
		budget = min
	}
	p, err := storage.OpenCached(path, budget, workers, pol)
	if err != nil {
		t.Fatalf("storage.OpenCached: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPageRankDiskEquivalence is the tentpole equivalence gate: PageRank
// from the disk-backed GraphSource (g == nil, adjacency through the bounded
// block cache) must produce byte-identical ranks to the in-memory run at
// workers 1, 2 and 8.
func TestPageRankDiskEquivalence(t *testing.T) {
	g := gen.RMAT(11, 8, 17)
	const iters = 8
	for _, workers := range []int{1, 2, 8} {
		for _, pol := range []storage.EvictPolicy{storage.LRU, storage.MRU} {
			mem, _, err := PageRank(g, iters, Config{Workers: workers})
			if err != nil {
				t.Fatalf("in-memory PageRank: %v", err)
			}
			prov := openDisk(t, g, workers, pol)
			disk, res, err := PageRank(nil, iters, Config{Workers: workers, Source: prov})
			if err != nil {
				t.Fatalf("disk PageRank (w=%d, %v): %v", workers, pol, err)
			}
			for v := range mem {
				if math.Float64bits(mem[v]) != math.Float64bits(disk[v]) {
					t.Fatalf("w=%d %v: rank[%d] differs: mem %v disk %v", workers, pol, v, mem[v], disk[v])
				}
			}
			if res.Supersteps == 0 {
				t.Fatal("disk run did no supersteps")
			}
			if prov.Stats().BlocksRead == 0 {
				t.Fatalf("w=%d %v: disk run read no blocks", workers, pol)
			}
		}
	}
}

// TestHashMinCCDiskEquivalence covers a data-dependent convergence workload:
// activation patterns, superstep counts and labels must all match.
func TestHashMinCCDiskEquivalence(t *testing.T) {
	g := gen.RMAT(10, 4, 23) // sparse: disconnected fringe, multiple components
	for _, workers := range []int{1, 2, 8} {
		mem, memRes, err := HashMinCC(g, Config{Workers: workers})
		if err != nil {
			t.Fatalf("in-memory HashMinCC: %v", err)
		}
		prov := openDisk(t, g, workers, storage.LRU)
		disk, diskRes, err := HashMinCC(nil, Config{Workers: workers, Source: prov})
		if err != nil {
			t.Fatalf("disk HashMinCC (w=%d): %v", workers, err)
		}
		if memRes.Supersteps != diskRes.Supersteps {
			t.Fatalf("w=%d: supersteps differ: mem %d disk %d", workers, memRes.Supersteps, diskRes.Supersteps)
		}
		if memRes.Net != diskRes.Net {
			t.Fatalf("w=%d: network stats differ: mem %+v disk %+v", workers, memRes.Net, diskRes.Net)
		}
		for v := range mem {
			if mem[v] != disk[v] {
				t.Fatalf("w=%d: label[%d] differs: mem %d disk %d", workers, v, mem[v], disk[v])
			}
		}
	}
}

// TestStoragePolicySpill covers the graphbench `-source disk` path: with the
// process-global policy set, a plain in-memory Run spills to a temp block
// file, produces identical results, and attaches the storage section to the
// trace.
func TestStoragePolicySpill(t *testing.T) {
	g := gen.RMAT(10, 8, 29)
	const iters = 5
	mem, _, err := PageRank(g, iters, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storage.SetDefault(&storage.Policy{
		Disk:        true,
		BudgetBytes: 1 << 22,
		BlockBytes:  1 << 11,
		Dir:         dir,
		Evict:       storage.MRU,
	})
	defer storage.SetDefault(nil)
	cfg := Config{Workers: 2}
	cfg.Trace = true
	disk, res, err := PageRank(g, iters, cfg)
	if err != nil {
		t.Fatalf("PageRank under disk policy: %v", err)
	}
	for v := range mem {
		if math.Float64bits(mem[v]) != math.Float64bits(disk[v]) {
			t.Fatalf("rank[%d] differs under disk policy: mem %v disk %v", v, mem[v], disk[v])
		}
	}
	st := res.Trace.Storage
	if st == nil {
		t.Fatal("trace has no storage section under disk policy")
	}
	if st.Kind != "disk" || st.BytesRead <= 0 || st.FileBytes <= 0 {
		t.Fatalf("bad storage trace: %+v", st)
	}
	if len(st.Rounds) == 0 {
		t.Fatal("storage trace has no per-round series")
	}
	var roundBytes int64
	for _, r := range st.Rounds {
		roundBytes += r.BytesRead
	}
	if roundBytes != st.BytesRead {
		t.Fatalf("per-round bytes %d do not sum to total %d", roundBytes, st.BytesRead)
	}
	noSpillLeft(t, dir)
}

// noSpillLeft fails t when a spill file is left in dir.
func noSpillLeft(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("spill file %s left behind", f.Name())
	}
}

// TestStoragePolicyBudgetError pins the satellite contract: an impossible
// budget is a typed error from Run, not an OOM.
func TestStoragePolicyBudgetError(t *testing.T) {
	g := gen.RMAT(10, 8, 31)
	dir := t.TempDir()
	storage.SetDefault(&storage.Policy{Disk: true, BudgetBytes: 128, Dir: dir})
	defer storage.SetDefault(nil)
	_, _, err := PageRank(g, 3, Config{Workers: 2})
	if !errors.Is(err, storage.ErrBudget) {
		t.Fatalf("got %v, want wrapped storage.ErrBudget", err)
	}
	noSpillLeft(t, dir)
}

// TestStoragePolicySpillClosedOnError: a spill the run made is closed, its
// file removed, when the run fails after making it — on a Config rejected
// once the provider is open, and on a block that turns corrupt mid-run.
func TestStoragePolicySpillClosedOnError(t *testing.T) {
	g := gen.RMAT(10, 8, 37)
	info, err := storage.Write(filepath.Join(t.TempDir(), "probe.gsb"), g, storage.Options{BlockBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// one decoded block of cache: every superstep's sweep rereads the file
	storage.SetDefault(&storage.Policy{Disk: true, BlockBytes: 1 << 10, Dir: dir,
		BudgetBytes: info.ResidentBytes + info.MaxDecodedBytes})
	defer storage.SetDefault(nil)

	if _, _, err := PageRank(g, 3, Config{Workers: 1, Partition: []int{0}}); err == nil {
		t.Fatal("a one-entry Partition was accepted")
	}
	noSpillLeft(t, dir)

	// Compute runs on a gang goroutine, so the corruption's own failure is
	// checked after the run
	corrupted, corruptErr := false, error(nil)
	prog := Program[int, int]{
		Compute: func(ctx *Context[int], v graph.V, s *int, msgs []int) {
			if ctx.Superstep() == 1 && !corrupted {
				corrupted = true
				corruptErr = corruptLastBlock(dir)
			}
			if ctx.Superstep() == 3 {
				ctx.VoteToHalt()
				return
			}
			ctx.SendToNeighbors(v, 1)
		},
	}
	_, err = Run(g, prog, Config{Workers: 1})
	if corruptErr != nil {
		t.Fatal(corruptErr)
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("got %v, want a wrapped storage.ErrCorrupt", err)
	}
	noSpillLeft(t, dir)
}

// corruptLastBlock flips the last payload byte of the last block (just
// before its CRC) of the one spill file in dir, in place.
func corruptLastBlock(dir string) error {
	spills, err := filepath.Glob(filepath.Join(dir, "spill-*.gsb"))
	if err != nil {
		return err
	}
	if len(spills) != 1 {
		return fmt.Errorf("want one spill file in %s, got %v", dir, spills)
	}
	f, err := os.OpenFile(spills[0], os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, fi.Size()-5); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b, fi.Size()-5)
	return err
}
