package cluster

import (
	"math/rand"
	"sync"
)

// FaultPlan declares the faults the runtime injects into a run. It is the
// uniform fault model every engine built on the cluster runtime executes
// (the fault-tolerance axis of the distributed-GNN design space: worker
// crashes recovered by checkpoint/rollback, stragglers, lossy links with
// metered retransmission).
//
// All fields are optional; the zero plan injects nothing.
type FaultPlan struct {
	// CrashAtRound > 0 injects one worker failure when the engine's round
	// counter (Pregel superstep, gnndist sync round / event-loop step)
	// reaches that value. The engine recovers by rolling back to its latest
	// checkpoint — or restarting — and replaying; the re-executed work is
	// metered in RecoveryStats.
	CrashAtRound int
	// CrashWorker names the worker that dies (reporting only; recovery in
	// the BSP model is global regardless of which worker failed).
	CrashWorker int

	// StragglerFactor > 1 slows worker StragglerWorker down by that factor:
	// wall-clock engines credit factor× busy time, simulated-clock engines
	// (gnndist) multiply the worker's per-step cost.
	StragglerWorker int
	StragglerFactor float64

	// DropProb in (0,1) drops each cross-worker message transmission with
	// that probability. Dropped transmissions are retried until delivered
	// (up to MaxRetries extra attempts); every failed attempt is accounted
	// as real link traffic and metered in RecoveryStats, and each retry adds
	// RetryBackoff time units to RecoveryStats.RetryTime.
	DropProb     float64
	DropSeed     int64
	MaxRetries   int     // cap on retransmissions per message (default 10)
	RetryBackoff float64 // time units charged per retransmission (default 0)
}

// active reports whether the plan injects anything at all.
func (p FaultPlan) active() bool {
	return p.CrashAtRound > 0 || p.StragglerFactor > 1 || p.DropProb > 0
}

// RecoveryStats meters the cost of injected faults and of recovering from
// them. It is exported into obs.Trace as the "recovery" section, the raw
// material of the recovery-cost-vs-checkpoint-interval tables.
type RecoveryStats struct {
	Crashes         int     `json:"crashes"`
	RecoveredRounds int     `json:"recovered_rounds"` // rounds re-executed after rollback
	RecoveryTime    float64 `json:"recovery_time"`    // engine time units re-executed
	Checkpoints     int     `json:"checkpoints"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
	DroppedMessages int64   `json:"dropped_messages"` // failed transmissions
	RetryBytes      int64   `json:"retry_bytes"`      // wasted bytes re-sent
	RetryTime       float64 `json:"retry_time"`       // Σ RetryBackoff per retry
}

// FaultInjector executes a FaultPlan: the network consults it on every
// transfer for message drops, Gang.Run consults it for straggler
// slowdown, and engines consult CrashDue at their round boundaries. It also
// accumulates RecoveryStats, fed both by the runtime (drops, retries) and by
// the engines (checkpoints, rollback work).
//
// All methods are safe on a nil receiver (no faults planned) and safe for
// concurrent use.
type FaultInjector struct {
	plan FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	crashed bool
	stats   RecoveryStats
}

// NewFaultInjector creates an injector for plan, applying defaults
// (MaxRetries 10).
func NewFaultInjector(plan FaultPlan) *FaultInjector {
	if plan.MaxRetries <= 0 {
		plan.MaxRetries = 10
	}
	return &FaultInjector{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.DropSeed + 0x5deece66d)),
	}
}

// CrashDue reports whether the planned worker crash fires at this round. It
// returns true exactly once, the first time round reaches CrashAtRound; the
// engine must respond by rolling back to its latest checkpoint (or
// restarting) and replaying.
func (fi *FaultInjector) CrashDue(round int) bool {
	if fi == nil || fi.plan.CrashAtRound <= 0 {
		return false
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.crashed || round < fi.plan.CrashAtRound {
		return false
	}
	fi.crashed = true
	fi.stats.Crashes++
	return true
}

// SlowFactor returns the slowdown multiplier for worker w (1 when w is not
// the planned straggler).
func (fi *FaultInjector) SlowFactor(w int) float64 {
	if fi == nil || fi.plan.StragglerFactor <= 1 || w != fi.plan.StragglerWorker {
		return 1
	}
	return fi.plan.StragglerFactor
}

// drawOne draws the drop count for a single message of the given size and
// meters the retries. Caller holds fi.mu.
func (fi *FaultInjector) drawOne(size int64) int64 {
	drops := int64(0)
	for drops < int64(fi.plan.MaxRetries) && fi.rng.Float64() < fi.plan.DropProb {
		drops++
	}
	if drops > 0 {
		fi.stats.DroppedMessages += drops
		fi.stats.RetryBytes += size * drops
		fi.stats.RetryTime += fi.plan.RetryBackoff * float64(drops)
	}
	return drops
}

// drawDropsUniform draws drops for msgs messages of uniform size under one
// lock acquisition (the batched-accounting path). It returns the total failed
// transmissions and the wasted bytes they carried.
func (fi *FaultInjector) drawDropsUniform(msgs, size int64) (drops, retryBytes int64) {
	if fi == nil || fi.plan.DropProb <= 0 {
		return 0, 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for k := int64(0); k < msgs; k++ {
		drops += fi.drawOne(size)
	}
	return drops, drops * size
}

// drawDropsBatch draws drops for one message per entry of sizes under one
// lock acquisition (the staged-flush path, where message sizes may differ).
// It returns the total failed transmissions and the wasted bytes they
// carried.
func (fi *FaultInjector) drawDropsBatch(sizes []int64) (drops, retryBytes int64) {
	if fi == nil || fi.plan.DropProb <= 0 {
		return 0, 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for _, size := range sizes {
		d := fi.drawOne(size)
		drops += d
		retryBytes += d * size
	}
	return drops, retryBytes
}

// NoteCheckpoint meters one checkpoint snapshot of the given volume; engines
// call it every time they persist recovery state.
func (fi *FaultInjector) NoteCheckpoint(bytes int64) {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	fi.stats.Checkpoints++
	fi.stats.CheckpointBytes += bytes
	fi.mu.Unlock()
}

// NoteRecovery meters rollback work: rounds that must be re-executed and the
// engine time they had consumed.
func (fi *FaultInjector) NoteRecovery(rounds int, timeUnits float64) {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	fi.stats.RecoveredRounds += rounds
	fi.stats.RecoveryTime += timeUnits
	fi.mu.Unlock()
}

// Stats returns a snapshot of the accumulated recovery accounting.
func (fi *FaultInjector) Stats() RecoveryStats {
	if fi == nil {
		return RecoveryStats{}
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}
