package gnndist

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphsys/internal/gnn"
	"graphsys/internal/storage"
)

// openDisk writes the task graph to a block file and returns a cached
// provider sized to roughly half the decoded graph, so sampling actually
// evicts.
func openDisk(t *testing.T, task *gnn.Task, workers int) *storage.CachedProvider {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, task.G, storage.Options{BlockBytes: 1 << 10})
	if err != nil {
		t.Fatalf("storage.Write: %v", err)
	}
	budget := info.ResidentBytes + info.RawCSRBytes/2
	if min := info.ResidentBytes + int64(workers)*info.MaxDecodedBytes; budget < min {
		budget = min
	}
	p, err := storage.OpenCached(path, budget, workers, storage.LRU)
	if err != nil {
		t.Fatalf("storage.OpenCached: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestTrainSyncDiskEquivalence is the tentpole gate for the GNN engine:
// sampled training epochs whose adjacency comes through the disk-backed block
// cache must produce a bitwise-identical model trajectory (accuracy, loss,
// steps, gradient bytes, skipped broadcasts) to the in-memory run, at workers
// 1, 2 and 8, under both broadcast rules of the synchronous loop.
func TestTrainSyncDiskEquivalence(t *testing.T) {
	task := gnn.SyntheticCommunityTask(600, 4, 8, 0.5, 7)
	for _, tr := range syncTrainers {
		for _, workers := range []int{1, 2, 8} {
			cfg := TrainerConfig{Workers: workers, TimeBudget: 12, BatchSize: 16, Seed: 3, SancusTau: 5e-3}
			mem, err := tr.train(task, cfg)
			if err != nil {
				t.Fatalf("in-memory %s: %v", tr.name, err)
			}
			prov := openDisk(t, task, workers)
			cfg.Source = prov
			disk, err := tr.train(task, cfg)
			if err != nil {
				t.Fatalf("disk %s (w=%d): %v", tr.name, workers, err)
			}
			if math.Float64bits(mem.TestAcc) != math.Float64bits(disk.TestAcc) ||
				math.Float64bits(mem.Loss) != math.Float64bits(disk.Loss) {
				t.Fatalf("%s w=%d: acc/loss differ: mem (%v, %v) disk (%v, %v)",
					tr.name, workers, mem.TestAcc, mem.Loss, disk.TestAcc, disk.Loss)
			}
			if mem.Steps != disk.Steps || mem.GradBytes != disk.GradBytes || mem.Skipped != disk.Skipped {
				t.Fatalf("%s w=%d: trajectory differs: steps %d/%d gradBytes %d/%d skipped %d/%d",
					tr.name, workers, mem.Steps, disk.Steps, mem.GradBytes, disk.GradBytes, mem.Skipped, disk.Skipped)
			}
			if prov.Stats().BlocksRead == 0 {
				t.Fatalf("%s w=%d: disk run read no blocks", tr.name, workers)
			}
		}
	}
}

// TestTrainBoundedStaleDiskEquivalence covers the asynchronous scheduler: the
// event order depends only on simulated clocks, so the disk path must match.
func TestTrainBoundedStaleDiskEquivalence(t *testing.T) {
	task := gnn.SyntheticCommunityTask(400, 4, 8, 0.5, 11)
	cfg := TrainerConfig{Workers: 4, TimeBudget: 10, BatchSize: 16, Staleness: 2, Seed: 5,
		WorkerSpeed: []float64{1, 1.5, 1, 2}}
	mem, err := TrainBoundedStale(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov := openDisk(t, task, cfg.Workers)
	cfg.Source = prov
	disk, err := TrainBoundedStale(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(mem.TestAcc) != math.Float64bits(disk.TestAcc) || mem.Steps != disk.Steps {
		t.Fatalf("bounded-stale trajectory differs: acc %v/%v steps %d/%d",
			mem.TestAcc, disk.TestAcc, mem.Steps, disk.Steps)
	}
}

// TestTrainSyncStoragePolicy covers the graphbench `-source disk` path: the
// trainer spills the task graph itself, matches the in-memory result, and
// attaches the storage section (with a per-round series) to the trace.
func TestTrainSyncStoragePolicy(t *testing.T) {
	task := gnn.SyntheticCommunityTask(400, 4, 8, 0.5, 13)
	cfg := TrainerConfig{Workers: 2, TimeBudget: 8, BatchSize: 16, Seed: 9}
	mem, err := TrainSync(task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storage.SetDefault(&storage.Policy{
		Disk:        true,
		BudgetBytes: 1 << 22,
		BlockBytes:  1 << 10,
		Dir:         dir,
	})
	defer storage.SetDefault(nil)
	cfg.Trace = true
	disk, err := TrainSync(task, cfg)
	if err != nil {
		t.Fatalf("TrainSync under disk policy: %v", err)
	}
	if math.Float64bits(mem.TestAcc) != math.Float64bits(disk.TestAcc) || mem.Steps != disk.Steps {
		t.Fatalf("policy-spill trajectory differs: acc %v/%v steps %d/%d",
			mem.TestAcc, disk.TestAcc, mem.Steps, disk.Steps)
	}
	st := disk.Trace.Storage
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

// TestTrainSyncStorageBudgetError pins the typed-error contract: an
// impossible budget fails fast from the entry point, not mid-epoch.
func TestTrainSyncStorageBudgetError(t *testing.T) {
	task := gnn.SyntheticCommunityTask(400, 4, 8, 0.5, 13)
	dir := t.TempDir()
	storage.SetDefault(&storage.Policy{Disk: true, BudgetBytes: 64, Dir: dir})
	defer storage.SetDefault(nil)
	_, err := TrainSync(task, TrainerConfig{Workers: 2, TimeBudget: 2})
	if !errors.Is(err, storage.ErrBudget) {
		t.Fatalf("got %v, want wrapped storage.ErrBudget", err)
	}
	noSpillLeft(t, dir)
}

// TestTrainSyncCorruptBlock: a flipped payload byte in the task's block file
// surfaces from TrainSync as the round barrier's typed error, wrapping
// storage.ErrCorrupt, not as a panic or a trained model.
func TestTrainSyncCorruptBlock(t *testing.T) {
	task := gnn.SyntheticCommunityTask(400, 4, 8, 0.5, 13)
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := storage.Write(path, task.G, storage.Options{BlockBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xff // the last payload byte of the last block, before its CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	prov, err := storage.OpenCached(path, info.ResidentBytes+2*info.MaxDecodedBytes, 2, storage.LRU)
	if err != nil {
		t.Fatalf("OpenCached after corruption: %v", err)
	}
	defer prov.Close()
	_, err = TrainSync(task, TrainerConfig{Workers: 2, TimeBudget: 8, BatchSize: 16, Seed: 9, Source: prov})
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("got %v, want a wrapped storage.ErrCorrupt", err)
	}
	if !strings.HasPrefix(err.Error(), "gnndist: round ") {
		t.Fatalf("error %q does not come from the round barrier", err)
	}
}
