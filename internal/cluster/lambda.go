package cluster

import "sync"

// CostModel prices compute the way Dorylus does: always-on "GPU" servers are
// billed per active second at a high rate; serverless lambda threads are
// billed per invocation-millisecond at a low rate plus a fixed startup
// latency per invocation. The paper's §3 "Other Techniques" claim — CPU
// servers + serverless is more cost-effective than GPUs — is an accounting
// property of this model, reproduced in the tab2-serverless experiment.
type CostModel struct {
	GPURatePerSec    float64 // $/s of wall time per GPU server
	LambdaRatePerSec float64 // $/s of billed lambda compute
	LambdaStartupSec float64 // cold-start latency charged per invocation
	CPURatePerSec    float64 // $/s per always-on CPU graph server
}

// DefaultCostModel approximates 2021 cloud pricing ratios used by Dorylus:
// a V100 instance ≈ $3/h, lambda ≈ $0.0000167/GB-s (scaled), small CPU graph
// servers ≈ $0.10/h.
func DefaultCostModel() CostModel {
	return CostModel{
		GPURatePerSec:    3.06 / 3600,
		LambdaRatePerSec: 0.20 / 3600,
		LambdaStartupSec: 0.010,
		CPURatePerSec:    0.10 / 3600,
	}
}

// GPUCost returns the dollar cost of numServers GPU servers busy for seconds.
func (m CostModel) GPUCost(numServers int, seconds float64) float64 {
	return float64(numServers) * seconds * m.GPURatePerSec
}

// LambdaCost returns the dollar cost of invocations lambda calls totalling
// computeSeconds of billed compute, plus cpuServers CPU graph servers running
// for wallSeconds.
func (m CostModel) LambdaCost(invocations int64, computeSeconds float64, cpuServers int, wallSeconds float64) float64 {
	billed := computeSeconds + float64(invocations)*m.LambdaStartupSec
	return billed*m.LambdaRatePerSec + float64(cpuServers)*wallSeconds*m.CPURatePerSec
}

// LambdaPool executes small tasks on a bounded pool of short-lived executors,
// tracking invocation counts and billed compute for cost accounting.
type LambdaPool struct {
	concurrency int

	mu          sync.Mutex
	invocations int64
	unitsBilled int64 // abstract compute units executed
}

// NewLambdaPool creates a pool with the given invocation concurrency.
func NewLambdaPool(concurrency int) *LambdaPool {
	if concurrency <= 0 {
		concurrency = 1
	}
	return &LambdaPool{concurrency: concurrency}
}

// Map runs fn(i) for i in [0, n) with bounded concurrency, each call counted
// as one lambda invocation billing cost(i) compute units.
func (p *LambdaPool) Map(n int, cost func(i int) int64, fn func(i int)) {
	sem := make(chan struct{}, p.concurrency)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
			p.mu.Lock()
			p.invocations++
			if cost != nil {
				p.unitsBilled += cost(i)
			}
			p.mu.Unlock()
		}(i)
	}
	wg.Wait()
}

// Invocations returns the total number of lambda invocations so far.
func (p *LambdaPool) Invocations() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.invocations
}

// UnitsBilled returns the total billed compute units so far.
func (p *LambdaPool) UnitsBilled() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unitsBilled
}
