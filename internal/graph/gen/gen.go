// Package gen provides deterministic synthetic graph generators used in place
// of the proprietary/large real-world datasets evaluated by the systems the
// paper surveys. The generators reproduce the properties those evaluations
// depend on: degree skew (R-MAT, Barabási–Albert), community structure
// (planted partition), and small-world clustering (Watts–Strogatz).
package gen

import (
	"math"
	"math/rand"

	"graphsys/internal/graph"
)

// ErdosRenyi generates G(n, m): an undirected graph with n vertices and ~m
// distinct uniformly random edges, deterministically from seed.
func ErdosRenyi(n int, m int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	if max := int64(n) * int64(n-1) / 2; m > max {
		m = max // more edges than K_n has: clamp instead of spinning forever
	}
	seen := make(map[int64]bool, m)
	for int64(len(seen)) < m {
		u := graph.V(rng.Intn(n))
		v := graph.V(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches k edges to existing vertices with probability proportional to
// degree, yielding a power-law degree distribution.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if n < k+1 {
		n = k + 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	// repeated-endpoint list implements preferential attachment
	targets := make([]graph.V, 0, 2*n*k)
	// seed clique of k+1 vertices
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			b.AddEdge(graph.V(u), graph.V(v))
			targets = append(targets, graph.V(u), graph.V(v))
		}
	}
	for v := k + 1; v < n; v++ {
		// chosen keeps DRAW order: iterating a map here would append to
		// targets in process-random order and derail every later draw,
		// making the "seeded" generator emit a different graph per run
		chosen := make([]graph.V, 0, k)
		has := func(t graph.V) bool {
			for _, c := range chosen {
				if c == t {
					return true
				}
			}
			return false
		}
		for len(chosen) < k {
			t := targets[rng.Intn(len(targets))]
			if t == graph.V(v) || has(t) {
				continue
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			b.AddEdge(graph.V(v), t)
			targets = append(targets, graph.V(v), t)
		}
	}
	return b.Build()
}

// RMAT generates a Kronecker-style R-MAT graph with 2^scale vertices and
// edgeFactor × 2^scale edges, with the Graph500 parameters (a,b,c) =
// (0.57, 0.19, 0.19). R-MAT graphs have the heavy-tailed degree skew of
// web/social graphs used in the surveyed systems' evaluations.
func RMAT(scale int, edgeFactor int, seed int64) *graph.Graph {
	n := 1 << scale
	m := int64(edgeFactor) * int64(n)
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	bld := graph.NewBuilder(n, false)
	for e := int64(0); e < m; e++ {
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			bld.AddEdge(graph.V(u), graph.V(v))
		}
	}
	return bld.Build()
}

// RMATStream emits the exact edge sequence of RMAT(scale, edgeFactor, seed)
// — self-loops included, undeduplicated — without materializing a graph, so
// out-of-core builders (storage.WriteStream) can construct beyond-RAM
// R-MAT datasets with no global sort. Callers mirroring RMAT's undirected
// semantics must emit both arc directions and drop self-loops themselves.
func RMATStream(scale int, edgeFactor int, seed int64, emit func(u, v graph.V)) {
	n := 1 << scale
	m := int64(edgeFactor) * int64(n)
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	for e := int64(0); e < m; e++ {
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		emit(graph.V(u), graph.V(v))
	}
}

// WattsStrogatz generates a small-world ring lattice with n vertices, each
// connected to its k nearest neighbors, with rewiring probability p.
func WattsStrogatz(n, k int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			w := (v + j) % n
			if rng.Float64() < p {
				// rewire to a uniform random endpoint
				for {
					cand := rng.Intn(n)
					if cand != v {
						w = cand
						break
					}
				}
			}
			if v != w {
				b.AddEdge(graph.V(v), graph.V(w))
			}
		}
	}
	return b.Build()
}

// Community describes a planted-partition generation result: the graph and
// the ground-truth community of each vertex.
type Community struct {
	Graph      *graph.Graph
	Membership []int // community id per vertex
	K          int   // number of communities
}

// PlantedPartitionSparse generates k communities of size n/k in O(m) time:
// it samples degIn intra- and degOut inter-community edges per vertex in
// expectation rather than testing all O(n²) pairs. degIn must exceed degOut
// for detectable communities. It is the ground-truth workload for
// community-detection and node-classification experiments.
func PlantedPartitionSparse(n, k int, degIn, degOut float64, seed int64) *Community {
	rng := rand.New(rand.NewSource(seed))
	member := make([]int, n)
	commOf := make([][]graph.V, k)
	for v := 0; v < n; v++ {
		c := v * k / n
		member[v] = c
		commOf[c] = append(commOf[c], graph.V(v))
	}
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		c := member[v]
		nin := poisson(rng, degIn/2)
		for i := 0; i < nin; i++ {
			w := commOf[c][rng.Intn(len(commOf[c]))]
			if w != graph.V(v) {
				b.AddEdge(graph.V(v), w)
			}
		}
		nout := poisson(rng, degOut/2)
		for i := 0; i < nout; i++ {
			w := graph.V(rng.Intn(n))
			if member[w] != c && w != graph.V(v) {
				b.AddEdge(graph.V(v), w)
			}
		}
	}
	return &Community{Graph: b.Build(), Membership: member, K: k}
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Grid generates an rows×cols 2D grid graph (useful for deterministic tests:
// its triangle count is 0 and component structure is known).
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, false)
	id := func(r, c int) graph.V { return graph.V(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Clique generates the complete graph K_n.
func Clique(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	return b.Build()
}

// WithRandomLabels returns a copy of g with vertex labels drawn uniformly
// from [0, numLabels).
func WithRandomLabels(g *graph.Graph, numLabels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(g.NumVertices(), g.Directed())
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		b.SetLabel(v, int32(rng.Intn(numLabels)))
	}
	g.EdgesOnce(func(u, v graph.V) { b.AddEdge(u, v) })
	return b.Build()
}

// MoleculeDB generates a synthetic molecule-like transaction database for
// FSM and graph-classification experiments. Class-1 transactions embed a
// distinguishing functional-group motif (a labeled ring) with probability
// motifProb; class-0 transactions are random. This mirrors the
// bioinformatics/biochemistry workloads the paper motivates (functional
// groups as informative features).
func MoleculeDB(numGraphs, verticesPer, numLabels int, motifProb float64, seed int64) *graph.TransactionDB {
	rng := rand.New(rand.NewSource(seed))
	db := &graph.TransactionDB{}
	for i := 0; i < numGraphs; i++ {
		class := i % 2
		n := verticesPer + rng.Intn(verticesPer/2+1)
		b := graph.NewBuilder(n, false)
		for v := 0; v < n; v++ {
			b.SetLabel(graph.V(v), int32(rng.Intn(numLabels)))
		}
		// random backbone: a spanning path plus extra edges
		perm := rng.Perm(n)
		for j := 1; j < n; j++ {
			b.AddLabeledEdge(graph.V(perm[j-1]), graph.V(perm[j]), int32(rng.Intn(2)))
		}
		extra := n / 2
		for j := 0; j < extra; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddLabeledEdge(graph.V(u), graph.V(v), int32(rng.Intn(2)))
			}
		}
		if class == 1 && rng.Float64() < motifProb && n >= 4 {
			// plant a labeled 4-ring motif on the first four vertices
			for v := 0; v < 4; v++ {
				b.SetLabel(graph.V(v), int32(numLabels)) // distinguished label
			}
			b.AddLabeledEdge(0, 1, 1)
			b.AddLabeledEdge(1, 2, 1)
			b.AddLabeledEdge(2, 3, 1)
			b.AddLabeledEdge(3, 0, 1)
		}
		db.Add(b.Build(), class)
	}
	return db
}
