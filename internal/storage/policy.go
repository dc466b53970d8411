package storage

import (
	"os"
	"sync"

	"graphsys/internal/graph"
)

// Policy is the process-global storage mode, the hook behind graphbench's
// `-source disk -memory-budget N` flags: when Disk is set, ProviderFor
// spills the in-memory graph of every engine run that brings no Source of
// its own to a temporary block file and serves it through the bounded cache
// instead of the CSR arrays. Like tensor.SetParallelism, it is set once at
// process startup before any engine runs.
type Policy struct {
	// Disk routes engine adjacency access through a spilled block file.
	Disk bool
	// BudgetBytes is the total memory budget per engine run (resident part
	// plus all workers' cache). An explicit budget is enforced exactly
	// (ErrBudget if infeasible). 0 means a default of half the raw CSR size,
	// raised to the feasibility minimum when the graph is too small for that
	// to hold one decoded block per worker.
	BudgetBytes int64
	// BlockBytes is the target encoded block size (0 = DefaultBlockBytes).
	BlockBytes int
	// Dir is where spill files are created ("" = os.TempDir()).
	Dir string
	// Evict is the cache eviction policy for spilled providers.
	Evict EvictPolicy
}

var (
	policyMu      sync.Mutex
	defaultPolicy *Policy
)

// SetDefault installs the process-global storage policy (nil restores the
// in-memory default).
func SetDefault(p *Policy) {
	policyMu.Lock()
	defaultPolicy = p
	policyMu.Unlock()
}

// ProviderFor picks the provider one engine run over g reads adjacency
// through, with handles for workers workers. It is the one place the
// process-global policy is read: src when the caller passed one; else, when
// the policy selects disk, a spill of g; else InMemory(g). owned reports
// that the provider is a spill made here, which the run must Close — that
// removes the spill file. A budget the spill cannot meet is a wrapped
// ErrBudget, before the run starts.
func ProviderFor(g *graph.Graph, src Provider, workers int) (prov Provider, owned bool, err error) {
	if src != nil {
		return src, false, nil
	}
	policyMu.Lock()
	pol := defaultPolicy
	policyMu.Unlock()
	if pol != nil && pol.Disk {
		sp, err := pol.spill(g, workers)
		if err != nil {
			return nil, false, err
		}
		return sp, true, nil
	}
	return InMemory(g), false, nil
}

// spill writes g to a temporary block file under the policy's directory and
// opens a cached provider over it with per-worker handles. Closing the
// provider removes the spill file.
func (p *Policy) spill(g *graph.Graph, workers int) (*CachedProvider, error) {
	tmp, err := os.CreateTemp(p.Dir, "spill-*.gsb")
	if err != nil {
		return nil, err
	}
	path := tmp.Name()
	tmp.Close()
	info, err := Write(path, g, Options{BlockBytes: p.BlockBytes})
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	budget := p.BudgetBytes
	if budget <= 0 {
		budget = info.RawCSRBytes / 2
		if min := info.ResidentBytes + int64(workers)*info.MaxDecodedBytes; budget < min {
			budget = min
		}
	}
	cp, err := OpenCached(path, budget, workers, p.Evict)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	cp.removeOnClose = path
	return cp, nil
}
