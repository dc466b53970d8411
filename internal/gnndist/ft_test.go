package gnndist

import (
	"runtime"
	"strings"
	"testing"

	"graphsys/internal/cluster"
	"graphsys/internal/gnn"
	"graphsys/internal/tensor"
)

// crashPlan injects a single worker crash at round r.
func crashPlan(r int) cluster.RunOptions {
	return cluster.RunOptions{Trace: true, Faults: &cluster.FaultPlan{CrashAtRound: r, CrashWorker: 1}}
}

// syncTrainers are the synchronous round loop's two broadcast rules. At
// SancusTau 5e-3 Sancus really skips broadcasts on distTask, so its held
// weight copy diverges from master and must be part of the checkpoint.
var syncTrainers = []struct {
	name  string
	train func(*gnn.Task, TrainerConfig) (DistResult, error)
}{{"sync", TrainSync}, {"sancus", TrainSancus}}

// sameFetches fails unless a recovered run's feature-fetch counters equal
// the fault-free run's: the checkpoint rolls them back with the rest of the
// result, so the replayed rounds are not counted twice.
func sameFetches(t *testing.T, name string, got, clean DistResult) {
	t.Helper()
	if got.Hits != clean.Hits || got.Misses != clean.Misses || got.Local != clean.Local || got.RemoteFrac != clean.RemoteFrac {
		t.Fatalf("%s: fetch counters differ: hits %d vs %d, misses %d vs %d, local %d vs %d, remote frac %v vs %v",
			name, got.Hits, clean.Hits, got.Misses, clean.Misses, got.Local, clean.Local, got.RemoteFrac, clean.RemoteFrac)
	}
}

// TestSyncCrashRecoveryExactLoss is the tentpole acceptance check: a crash
// mid-training must roll back to the last checkpoint and replay to the EXACT
// fault-free result — same loss, same accuracy, same step count, same skipped
// broadcasts, same feature fetches — because the snapshot carries weights,
// the workers' held copy, Adam moments, every worker's RNG position and the
// feature store's counters.
func TestSyncCrashRecoveryExactLoss(t *testing.T) {
	task := distTask()
	for _, tr := range syncTrainers {
		base := TrainerConfig{Workers: 4, TimeBudget: 12, Seed: 21, SancusTau: 5e-3}
		clean, err := tr.train(task, base)
		if err != nil {
			t.Fatal(err)
		}
		faulty := base
		faulty.CheckpointEvery = 2
		faulty.RunOptions = crashPlan(5)
		got, err := tr.train(task, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if got.Loss != clean.Loss || got.TestAcc != clean.TestAcc {
			t.Fatalf("%s: recovered run diverged: loss %v vs %v, acc %v vs %v",
				tr.name, got.Loss, clean.Loss, got.TestAcc, clean.TestAcc)
		}
		if got.Steps != clean.Steps || got.SimTime != clean.SimTime || got.Skipped != clean.Skipped {
			t.Fatalf("%s: committed schedule differs: steps %d vs %d, time %v vs %v, skipped %d vs %d",
				tr.name, got.Steps, clean.Steps, got.SimTime, clean.SimTime, got.Skipped, clean.Skipped)
		}
		sameFetches(t, tr.name, got, clean)
		if tr.name == "sancus" && clean.Skipped == 0 {
			t.Fatal("sancus: no broadcast skipped, so the held copy is never stale")
		}
		// the replayed round is visible as recovery cost, not hidden
		if got.Trace == nil || got.Trace.Recovery == nil {
			t.Fatalf("%s: recovery stats missing from trace", tr.name)
		}
		r := got.Trace.Recovery
		if r.Crashes != 1 {
			t.Fatalf("%s: crashes = %d", tr.name, r.Crashes)
		}
		if r.RecoveredRounds != 1 { // crashed at 5, checkpoint at 4
			t.Fatalf("%s: recovered rounds = %d, want 1", tr.name, r.RecoveredRounds)
		}
		if r.Checkpoints == 0 || r.CheckpointBytes == 0 {
			t.Fatalf("%s: checkpoint volume not metered: %+v", tr.name, r)
		}
		// replayed rounds re-send real traffic
		if got.Net.Bytes <= clean.Net.Bytes {
			t.Fatalf("%s: recovery traffic invisible: %d vs %d bytes", tr.name, got.Net.Bytes, clean.Net.Bytes)
		}
	}
}

// Without explicit checkpoints the run restarts from the implicit round-0
// snapshot — more recomputation, same exact final model.
func TestSyncCrashWithoutCheckpointRestarts(t *testing.T) {
	task := distTask()
	for _, tr := range syncTrainers {
		base := TrainerConfig{Workers: 4, TimeBudget: 10, Seed: 22, SancusTau: 5e-3}
		clean, err := tr.train(task, base)
		if err != nil {
			t.Fatal(err)
		}
		faulty := base
		faulty.RunOptions = crashPlan(4)
		got, err := tr.train(task, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if got.Loss != clean.Loss || got.Steps != clean.Steps || got.Skipped != clean.Skipped {
			t.Fatalf("%s: restart diverged: loss %v vs %v, steps %d vs %d, skipped %d vs %d",
				tr.name, got.Loss, clean.Loss, got.Steps, clean.Steps, got.Skipped, clean.Skipped)
		}
		if r := got.Trace.Recovery; r == nil || r.Crashes != 1 || r.RecoveredRounds != 4 {
			t.Fatalf("%s: full restart should replay 4 rounds after 1 crash, got %+v", tr.name, r)
		}
	}
}

// Error-feedback residuals are part of the snapshot: with compensated
// quantisation a crash must still replay to the exact fault-free model.
func TestSyncCrashRecoveryQuantizedExact(t *testing.T) {
	task := distTask()
	base := TrainerConfig{Workers: 4, TimeBudget: 10, Seed: 23, QuantBits: 8, QuantCompensate: true}
	clean, _ := TrainSync(task, base)
	faulty := base
	faulty.CheckpointEvery = 3
	faulty.RunOptions = crashPlan(7)
	got, err := TrainSync(task, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != clean.Loss || got.GradBytes != clean.GradBytes {
		t.Fatalf("quantized recovery diverged: loss %v vs %v, grad bytes %d vs %d",
			got.Loss, clean.Loss, got.GradBytes, clean.GradBytes)
	}
}

func TestBoundedStaleCrashRecoveryExact(t *testing.T) {
	task := distTask()
	base := TrainerConfig{Workers: 4, TimeBudget: 10, Seed: 24, Staleness: 3, CacheSize: 32}
	clean, _ := TrainBoundedStale(task, base)
	faulty := base
	faulty.CheckpointEvery = 8
	faulty.RunOptions = crashPlan(20)
	got, err := TrainBoundedStale(task, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != clean.Loss || got.TestAcc != clean.TestAcc || got.Steps != clean.Steps {
		t.Fatalf("bounded-stale recovery diverged: loss %v vs %v, steps %d vs %d",
			got.Loss, clean.Loss, got.Steps, clean.Steps)
	}
	if clean.Hits == 0 {
		t.Fatal("no cache hits, so the hit counter's rollback goes unchecked")
	}
	sameFetches(t, "bounded-stale", got, clean)
	r := got.Trace.Recovery
	if r == nil || r.Crashes != 1 || r.RecoveredRounds != 4 { // crash at event 20, ckpt at 16
		t.Fatalf("recovery accounting wrong: %+v", r)
	}
}

// An injected straggler must slow the whole synchronous schedule: same
// simulated budget buys fewer rounds, and the skew meters see the slow worker.
func TestStragglerInjectionGatesSyncRounds(t *testing.T) {
	task := distTask()
	base := TrainerConfig{Workers: 4, TimeBudget: 12, Seed: 25}
	clean, _ := TrainSync(task, base)
	slow := base
	slow.RunOptions = cluster.RunOptions{
		Trace:  true,
		Faults: &cluster.FaultPlan{StragglerWorker: 2, StragglerFactor: 4},
	}
	got, err := TrainSync(task, slow)
	if err != nil {
		t.Fatal(err)
	}
	if got.SyncRounds >= clean.SyncRounds {
		t.Fatalf("straggler did not gate rounds: %d vs %d", got.SyncRounds, clean.SyncRounds)
	}
	busy := got.Trace.WorkerBusySec
	if busy[2] <= busy[0] {
		t.Fatalf("straggler busy time not metered: %v", busy)
	}
	if got.Trace.Skew.BusyImbalance <= 1.5 {
		t.Fatalf("4x straggler invisible in skew: %f", got.Trace.Skew.BusyImbalance)
	}
}

// Lossy links cost retransmission traffic but never change the result (the
// runtime's delivery is reliable-with-retries).
func TestLossyLinksMeterRetriesOnly(t *testing.T) {
	task := distTask()
	base := TrainerConfig{Workers: 4, TimeBudget: 8, Seed: 26}
	clean, _ := TrainSync(task, base)
	lossy := base
	lossy.RunOptions = cluster.RunOptions{
		Trace:  true,
		Faults: &cluster.FaultPlan{DropProb: 0.3, DropSeed: 11},
	}
	got, err := TrainSync(task, lossy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != clean.Loss || got.TestAcc != clean.TestAcc {
		t.Fatalf("lossy links changed the result: loss %v vs %v", got.Loss, clean.Loss)
	}
	r := got.Trace.Recovery
	if r == nil || r.DroppedMessages == 0 || r.RetryBytes == 0 {
		t.Fatalf("retransmissions not metered: %+v", r)
	}
	if got.Net.Bytes != clean.Net.Bytes+r.RetryBytes {
		t.Fatalf("retry bytes unaccounted: %d vs %d + %d", got.Net.Bytes, clean.Net.Bytes, r.RetryBytes)
	}
}

func TestTrainerConfigValidation(t *testing.T) {
	task := distTask()
	_, err := TrainSync(task, TrainerConfig{Workers: 4, WorkerSpeed: []float64{1, 1}})
	if err == nil || !strings.Contains(err.Error(), "WorkerSpeed has 2 entries") {
		t.Fatalf("bad WorkerSpeed not rejected: %v", err)
	}
	_, err = TrainBoundedStale(task, TrainerConfig{QuantBits: 64})
	if err == nil || !strings.Contains(err.Error(), "QuantBits") {
		t.Fatalf("bad QuantBits not rejected: %v", err)
	}
	_, err = TrainSancus(task, TrainerConfig{Staleness: -1})
	if err == nil || !strings.Contains(err.Error(), "Staleness") {
		t.Fatalf("bad Staleness not rejected: %v", err)
	}
	_, err = TrainSync(task, TrainerConfig{FeatureBits: 33})
	if err == nil || !strings.Contains(err.Error(), "FeatureBits") {
		t.Fatalf("bad FeatureBits not rejected: %v", err)
	}
}

// countedSource.rewind must land the generator on the exact same draw
// sequence the original source would have continued with.
func TestCountedSourceRewind(t *testing.T) {
	a := newCountedSource(99)
	var prefix []uint64
	for i := 0; i < 37; i++ {
		prefix = append(prefix, a.Uint64())
	}
	mark := a.n
	var tail []uint64
	for i := 0; i < 20; i++ {
		tail = append(tail, a.Uint64())
	}
	a.rewind(mark)
	for i := 0; i < 20; i++ {
		if got := a.Uint64(); got != tail[i] {
			t.Fatalf("draw %d after rewind: %d want %d", i, got, tail[i])
		}
	}
	_ = prefix
}

// TestParallelKernelsExactLoss re-runs the crash-recovery equivalence with
// the parallel tensor kernels enabled: training with parallelism 8 must
// produce the EXACT loss of the serial run, and crash recovery under
// parallelism must still replay to that same value. This is the distributed
// half of the kernel determinism contract.
func TestParallelKernelsExactLoss(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(oldProcs)
	defer tensor.SetParallelism(0)

	task := distTask()
	serial := TrainerConfig{Workers: 4, TimeBudget: 12, Seed: 21}
	serial.RunOptions = cluster.RunOptions{Parallelism: 1}
	want, err := TrainSync(task, serial)
	if err != nil {
		t.Fatal(err)
	}

	par := TrainerConfig{Workers: 4, TimeBudget: 12, Seed: 21}
	par.RunOptions = cluster.RunOptions{Parallelism: 8}
	got, err := TrainSync(task, par)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != want.Loss || got.TestAcc != want.TestAcc || got.Steps != want.Steps {
		t.Fatalf("parallel kernels changed results: loss %v vs %v, acc %v vs %v, steps %d vs %d",
			got.Loss, want.Loss, got.TestAcc, want.TestAcc, got.Steps, want.Steps)
	}

	crash := TrainerConfig{Workers: 4, TimeBudget: 12, Seed: 21, CheckpointEvery: 2}
	crash.RunOptions = crashPlan(5)
	crash.RunOptions.Parallelism = 8
	rec, err := TrainSync(task, crash)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Loss != want.Loss || rec.TestAcc != want.TestAcc || rec.Steps != want.Steps {
		t.Fatalf("recovered parallel run diverged: loss %v vs %v", rec.Loss, want.Loss)
	}
}
