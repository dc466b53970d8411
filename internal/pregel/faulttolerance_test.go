package pregel

import (
	"math"
	"testing"

	"graphsys/internal/cluster"
	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// crashAt is shorthand for a fault plan that kills a worker at round r.
func crashAt(r int) cluster.RunOptions {
	return cluster.RunOptions{Faults: &cluster.FaultPlan{CrashAtRound: r}}
}

func TestCheckpointRecoveryCorrectness(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 1)
	want, _, _ := HashMinCC(g, Config{Workers: 4})
	// same run with a failure at step 3, recovering from checkpoints every 2
	prog := ccProgram()
	res, err := Run(g, prog, Config{Workers: 4, CheckpointEvery: 2, RunOptions: crashAt(3)})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if want[v] != res.States[v] {
			t.Fatalf("vertex %d: %d vs %d after recovery", v, res.States[v], want[v])
		}
	}
	if res.Checkpoints == 0 || res.CheckpointBytes == 0 {
		t.Fatal("no checkpoints recorded")
	}
	if res.RecoveredSteps != 1 { // failed at 3, last checkpoint at 2
		t.Fatalf("recovered %d steps, want 1", res.RecoveredSteps)
	}
}

// TestPageRankCrashRecoveryMatchesFaultFree checks the floating-point
// workload too: a crash-and-rollback run must land on the fault-free ranks
// bit for bit: messages are folded in ascending worker rank, so a replayed
// superstep sums them exactly as the fault-free run did.
func TestPageRankCrashRecoveryMatchesFaultFree(t *testing.T) {
	g := gen.RMAT(9, 8, 4)
	want, _, _ := PageRank(g, 15, Config{Workers: 4})
	got, res, err := PageRank(g, 15, Config{Workers: 4, CheckpointEvery: 3,
		RunOptions: cluster.RunOptions{Trace: true, Faults: &cluster.FaultPlan{CrashAtRound: 7, CrashWorker: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: %v vs %v after recovery (not bitwise equal)", v, got[v], want[v])
		}
	}
	if res.RecoveredSteps != 1 { // crashed at 7, checkpoint at 6
		t.Fatalf("recovered %d steps, want 1", res.RecoveredSteps)
	}
	if r := res.Trace.Recovery; r == nil || r.Crashes != 1 || r.Checkpoints == 0 {
		t.Fatalf("recovery stats not exported: %+v", r)
	}
}

func TestRecoveryWithoutCheckpointRestarts(t *testing.T) {
	g := gen.ErdosRenyi(150, 450, 2)
	want, _, _ := HashMinCC(g, Config{Workers: 4})
	prog := ccProgram()
	res, _ := Run(g, prog, Config{Workers: 4, RunOptions: crashAt(3)}) // no checkpoints
	for v := range want {
		if want[v] != res.States[v] {
			t.Fatalf("vertex %d wrong after full restart", v)
		}
	}
	if res.RecoveredSteps != 3 {
		t.Fatalf("full restart should recompute 3 steps, got %d", res.RecoveredSteps)
	}
	// a program without Init: the restart must zero every state again
	visits, _, _ := RandomWalkVisits(g, 3, 5, 1, Config{Workers: 4})
	got, _, err := RandomWalkVisits(g, 3, 5, 1, Config{Workers: 4, RunOptions: crashAt(3)})
	if err != nil {
		t.Fatal(err)
	}
	for v := range visits {
		if got[v] != visits[v] {
			t.Fatalf("random walk: vertex %d has %d visits after a full restart, %d without a crash", v, got[v], visits[v])
		}
	}
}

func TestCheckpointFrequencyTradeoff(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 3)
	prog := ccProgram()
	frequent, _ := Run(g, prog, Config{Workers: 4, CheckpointEvery: 1, RunOptions: crashAt(4)})
	sparse, _ := Run(g, prog, Config{Workers: 4, CheckpointEvery: 4, RunOptions: crashAt(5)})
	// frequent checkpointing writes more but recomputes less — LWCP's trade
	if frequent.CheckpointBytes <= sparse.CheckpointBytes {
		t.Fatalf("frequent ckpt bytes %d not above sparse %d",
			frequent.CheckpointBytes, sparse.CheckpointBytes)
	}
	if frequent.RecoveredSteps > sparse.RecoveredSteps {
		t.Fatalf("frequent ckpt recomputed %d > sparse %d",
			frequent.RecoveredSteps, sparse.RecoveredSteps)
	}
}

func TestNoFaultToleranceOverheadWhenDisabled(t *testing.T) {
	g := gen.Grid(10, 10)
	res, _ := Run(g, ccProgram(), Config{Workers: 2})
	if res.Checkpoints != 0 || res.CheckpointBytes != 0 || res.RecoveredSteps != 0 {
		t.Fatalf("accounting nonzero with FT disabled: %+v", res)
	}
}

// ccProgram is HashMin CC as a raw program (shared by the FT tests).
func ccProgram() Program[int32, int32] {
	return Program[int32, int32]{
		Init: func(g *graph.Graph, v graph.V) int32 { return int32(v) },
		Compute: func(ctx *Context[int32], v graph.V, state *int32, msgs []int32) {
			min := *state
			if ctx.Superstep() == 0 {
				ctx.SendToNeighbors(v, min)
				ctx.VoteToHalt()
				return
			}
			for _, m := range msgs {
				if m < min {
					min = m
				}
			}
			if min < *state {
				*state = min
				ctx.SendToNeighbors(v, min)
			}
			ctx.VoteToHalt()
		},
		Combine: func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		},
	}
}
