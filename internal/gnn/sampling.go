package gnn

import (
	"cmp"
	"math/rand"
	"slices"

	"graphsys/internal/graph"
	"graphsys/internal/storage"
)

// SampledSubgraph is a minibatch training block: the induced subgraph over a
// sampled k-hop neighborhood of a seed batch, plus the mapping back to
// global vertex ids.
type SampledSubgraph struct {
	Graph    *graph.Graph
	NewToOld []graph.V
	SeedLoc  []int // local indices of the seed vertices
}

// NeighborSample draws the k-hop sampled neighborhood of seeds with the
// given per-hop fanouts (Euler/AliGraph/DistDGL-style neighbor sampling):
// at each hop every frontier vertex keeps at most fanout random neighbors.
// It is NeighborSampleSource over g in memory, so the subgraph is unlabeled.
func NeighborSample(g *graph.Graph, seeds []graph.V, fanouts []int, rng *rand.Rand) *SampledSubgraph {
	sub, _ := NeighborSampleSource(storage.InMemory(g).Handle(0), seeds, fanouts, rng) // in-memory reads never fail
	return sub
}

// NeighborSampleSource is NeighborSample over a storage.GraphSource handle,
// such as an out-of-core block cache. Every pass over the source (one per
// hop, one for the induced subgraph) reads in ascending vertex order, which
// is block order, so it misses each block at most once whatever the cache
// budget. The draws still run in frontier order over copies of the lists
// and depend only on their contents, so for the same graph bytes the
// sampled subgraph — and therefore the whole training trajectory — is
// byte-identical whichever source holds it. (Sources carry adjacency only;
// the induced subgraph is unlabeled, which the models never observe — batch
// labels come from the task.) A read failure returns the source's error and
// no subgraph.
func NeighborSampleSource(src storage.GraphSource, seeds []graph.V, fanouts []int, rng *rand.Rand) (*SampledSubgraph, error) {
	order, err := sampleOrder(src, seeds, fanouts, rng)
	if err != nil {
		return nil, err
	}
	sub, err := inducedFromSource(src, order)
	if err != nil {
		return nil, err
	}
	return newSampled(sub, order, len(seeds)), nil
}

func newSampled(sub *graph.Graph, newToOld []graph.V, seeds int) *SampledSubgraph {
	s := &SampledSubgraph{Graph: sub, NewToOld: newToOld}
	for i := 0; i < seeds; i++ {
		s.SeedLoc = append(s.SeedLoc, i) // seeds were added first, dedup-safe for distinct seeds
	}
	return s
}

// sampleOrder runs the fanout-sampling walk and returns the sampled vertices
// in first-visit order (seeds first). Each hop gathers, then draws: the
// frontier's neighbor lists are copied out of src in ascending vertex order
// (block order), and the rng then draws over the copies in frontier order —
// the draw sequence of a walk that read each list as it reached it, so the
// read order never shows in the sample.
func sampleOrder(src storage.GraphSource, seeds []graph.V, fanouts []int, rng *rand.Rand) ([]graph.V, error) {
	inSet := map[graph.V]struct{}{}
	var order []graph.V
	addV := func(v graph.V) {
		if _, ok := inSet[v]; !ok {
			inSet[v] = struct{}{}
			order = append(order, v)
		}
	}
	for _, s := range seeds {
		addV(s)
	}
	var hop hopAdj
	frontier := seeds
	for _, fanout := range fanouts {
		if err := hop.gather(src, frontier); err != nil {
			return nil, err
		}
		start := len(order)
		for _, v := range frontier {
			ns := hop.neighbors(v)
			if len(ns) <= fanout {
				for _, u := range ns {
					addV(u)
				}
				continue
			}
			for i := 0; i < fanout; i++ {
				addV(ns[rng.Intn(len(ns))])
			}
		}
		frontier = order[start:len(order):len(order)] // this hop's first visits
	}
	return order, nil
}

// hopAdj is one hop's staging CSR: the neighbor lists of a frontier, copied
// out of the source so they outlive its one-live-view contract.
type hopAdj struct {
	ids  []graph.V // the frontier, sorted and deduplicated
	offs []int     // ids[i]'s list is adj[offs[i]:offs[i+1]]
	adj  []graph.V
}

// gather stages the lists of frontier's vertices, reading src in ascending
// vertex order. The buffers are reused across the hops of one sample.
func (h *hopAdj) gather(src storage.GraphSource, frontier []graph.V) error {
	h.ids = append(h.ids[:0], frontier...)
	slices.Sort(h.ids)
	h.ids = slices.Compact(h.ids)
	arcs := 0
	for _, v := range h.ids {
		arcs += src.Degree(v) // resident: sizes the copy without I/O
	}
	h.offs = append(h.offs[:0], 0)
	h.adj = slices.Grow(h.adj[:0], arcs)
	for _, v := range h.ids {
		ns, err := src.Neighbors(v)
		if err != nil {
			return err
		}
		h.adj = append(h.adj, ns...)
		h.offs = append(h.offs, len(h.adj))
	}
	return nil
}

// neighbors returns the staged list of v, which must be in the frontier.
func (h *hopAdj) neighbors(v graph.V) []graph.V {
	i, _ := slices.BinarySearch(h.ids, v)
	return h.adj[h.offs[i]:h.offs[i+1]]
}

// inducedFromSource builds the subgraph induced by vs (assumed distinct, as
// sampleOrder produces), local id i standing for vs[i], reading adjacency
// from src in ascending vertex order. It mirrors graph.InducedSubgraph's
// edge selection; the arcs arrive in a different order, but Build sorts
// them, so the CSR is byte-identical for unlabeled graphs.
func inducedFromSource(src storage.GraphSource, vs []graph.V) (*graph.Graph, error) {
	byID := make([]int32, len(vs)) // local ids in ascending global id order
	for i := range byID {
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(vs[a], vs[b]) })
	ids := make([]graph.V, len(vs))
	for j, i := range byID {
		ids[j] = vs[i]
	}
	directed := src.Directed()
	b := graph.NewBuilder(len(vs), directed)
	for j, old := range ids {
		ns, err := src.Neighbors(old)
		if err != nil {
			return nil, err
		}
		// ns ascends, so each match lies at or after the previous one;
		// undirected edges are added once, from their lower end
		lo := 0
		if !directed {
			lo = j + 1
		}
		for _, w := range ns {
			k, ok := slices.BinarySearch(ids[lo:], w)
			lo += k
			if ok {
				b.AddEdge(graph.V(byID[j]), graph.V(byID[lo]))
			}
		}
	}
	return b.Build(), nil
}
