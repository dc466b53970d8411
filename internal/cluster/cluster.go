// Package cluster is the simulated distributed runtime every "distributed"
// system in this repository runs on. Real deployments of the surveyed systems
// (Pregel, G-thinker, DistDGL, P³, …) run on multi-machine clusters; here a
// cluster is N in-process workers that may exchange data only through a
// metered Network, so communication volume, synchronisation rounds and load
// balance — the quantities the paper's comparisons are about — are measured
// exactly rather than inferred from wall-clock time.
package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Cluster models a set of workers connected by a metered network.
type Cluster struct {
	n      int
	net    *Network
	faults *FaultInjector // nil unless InstallFaults was called

	mu   sync.Mutex
	busy []float64 // cumulative per-worker busy time, seconds
}

// New creates a cluster with n workers and uniform link costs.
func New(n int) *Cluster {
	if n <= 0 {
		//lint:allow panicpolicy worker count is a compile-time-style configuration constant; a zero cluster is a programmer error, not a runtime condition
		panic("cluster: need at least one worker")
	}
	return &Cluster{n: n, net: NewNetwork(n), busy: make([]float64, n)}
}

// NumWorkers returns the number of workers.
func (c *Cluster) NumWorkers() int { return c.n }

// Network returns the cluster's metered network.
func (c *Cluster) Network() *Network { return c.net }

// InstallFaults installs a fault plan on the cluster and its network: the
// network starts dropping/retrying messages per the plan, Run credits
// straggler-slowed busy time, and engines observe the planned crash through
// the returned injector. Call before the run starts.
func (c *Cluster) InstallFaults(plan FaultPlan) *FaultInjector {
	fi := NewFaultInjector(plan)
	c.faults = fi
	c.net.setFaults(fi)
	return fi
}

// Faults returns the installed fault injector, or nil (which is safe to call
// methods on) when the run is fault-free.
func (c *Cluster) Faults() *FaultInjector { return c.faults }

// Run executes fn concurrently on every worker (fn receives the worker id)
// and blocks until all complete. Each worker's wall time is credited to its
// busy meter (see WorkerBusy). If workers panic, Run re-panics with ALL
// worker panics aggregated into one message, so a multi-worker failure is
// diagnosable from a single crash report.
func (c *Cluster) Run(fn func(worker int)) {
	var wg sync.WaitGroup
	panics := make([]any, c.n)
	elapsed := make([]float64, c.n)
	for w := 0; w < c.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			//lint:allow wallclock busy-time metering feeds the obs skew metrics only; results never read it
			start := time.Now()
			defer func() {
				//lint:allow wallclock busy-time metering feeds the obs skew metrics only; results never read it
				elapsed[w] = time.Since(start).Seconds()
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	c.mu.Lock()
	for w, sec := range elapsed {
		// a planned straggler is credited factor× its wall time, so the
		// slowdown shows up in busy-time skew exactly like a real slow node
		c.busy[w] += sec * c.faults.SlowFactor(w)
	}
	c.mu.Unlock()
	var failed []string
	for w, p := range panics {
		if p != nil {
			failed = append(failed, fmt.Sprintf("worker %d: %v", w, p))
		}
	}
	if len(failed) > 0 {
		//lint:allow panicpolicy worker panics are crashes by design: Run aggregates and rethrows them so drivers (graphbench, tests) surface every failed worker at once
		panic(fmt.Sprintf("cluster: %d worker(s) panicked: %s", len(failed), strings.Join(failed, "; ")))
	}
}

// AddBusy credits seconds of busy time to worker w. Engines that advance a
// SIMULATED clock (gnndist's WorkerSpeed model) use this so that trace skew
// reflects simulated rather than wall time; Run itself credits wall time.
func (c *Cluster) AddBusy(w int, seconds float64) {
	c.mu.Lock()
	c.busy[w] += seconds
	c.mu.Unlock()
}

// WorkerBusy returns a copy of the cumulative per-worker busy time (seconds).
func (c *Cluster) WorkerBusy() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.busy...)
}
