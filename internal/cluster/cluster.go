// Package cluster is the simulated distributed runtime every "distributed"
// system in this repository runs on. Real deployments of the surveyed systems
// (Pregel, G-thinker, DistDGL, P³, …) run on multi-machine clusters; here a
// cluster is N in-process workers that may exchange data only through a
// metered Network, so communication volume, synchronisation rounds and load
// balance — the quantities the paper's comparisons are about — are measured
// exactly rather than inferred from wall-clock time.
package cluster

import "sync"

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
// network starts dropping/retrying messages per the plan, Gang.Run credits
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

// AddBusy credits seconds of busy time to worker w. Engines that advance a
// SIMULATED clock (gnndist's WorkerSpeed model) use this so that trace skew
// reflects simulated rather than wall time; Gang.Run credits wall time.
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
