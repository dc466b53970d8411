package cluster

// Transfer is one logical data movement of Size bytes from worker From to
// worker To.
type Transfer struct {
	From, To int
	Size     int64
}

// CommPlan routes a set of logical transfers over the network topology.
// DirectPlan sends everything point-to-point; PlanRelay (the DGCL-style
// planner) may relay a transfer through an intermediate worker when the
// two-hop path over fast links is cheaper than the direct slow link — the
// essence of DGCL's topology-aware communication plans for NVLink islands.
type CommPlan struct {
	hops [][]int // per transfer: sequence of workers, e.g. [from, relay, to]
}

// DirectPlan returns the trivial plan (every transfer point-to-point).
func DirectPlan(ts []Transfer) *CommPlan {
	p := &CommPlan{hops: make([][]int, len(ts))}
	for i, t := range ts {
		p.hops[i] = []int{t.From, t.To}
	}
	return p
}

// PlanRelay computes, for each transfer, the cheapest one- or two-hop route
// under net's link costs. With k workers this is O(len(ts)·k).
func PlanRelay(net *Network, ts []Transfer) *CommPlan {
	p := &CommPlan{hops: make([][]int, len(ts))}
	for i, t := range ts {
		best := net.LinkCost(t.From, t.To)
		bestRelay := -1
		for r := 0; r < net.n; r++ {
			if r == t.From || r == t.To {
				continue
			}
			c := net.LinkCost(t.From, r) + net.LinkCost(r, t.To)
			if c < best {
				best = c
				bestRelay = r
			}
		}
		if bestRelay >= 0 {
			p.hops[i] = []int{t.From, bestRelay, t.To}
		} else {
			p.hops[i] = []int{t.From, t.To}
		}
	}
	return p
}

// Execute accounts all transfers on net following the plan's routes and
// returns the total weighted cost added.
func (p *CommPlan) Execute(net *Network, ts []Transfer) float64 {
	before := net.Stats().WeightedCost
	for i, t := range ts {
		route := p.hops[i]
		for h := 1; h < len(route); h++ {
			net.Account(route[h-1], route[h], t.Size)
		}
	}
	return net.Stats().WeightedCost - before
}

// RingTopology configures net as hosts of `perHost` workers each: links
// within a host have cost fastCost (NVLink-like), links across hosts cost 1.
func RingTopology(net *Network, perHost int, fastCost float64) {
	for i := 0; i < net.n; i++ {
		for j := 0; j < net.n; j++ {
			if i == j {
				continue
			}
			if i/perHost == j/perHost {
				net.SetLinkCost(i, j, fastCost)
			} else {
				net.SetLinkCost(i, j, 1)
			}
		}
	}
}
