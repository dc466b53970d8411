package storage

import (
	"graphsys/internal/graph"
)

// MemSource adapts an in-memory *graph.Graph to GraphSource — today's
// behavior, and the equivalence oracle for the disk-backed path. All I/O
// counters stay zero.
type MemSource struct {
	g *graph.Graph
}

// NumVertices returns the number of vertices.
func (s *MemSource) NumVertices() int { return s.g.NumVertices() }

// NumArcs returns the number of stored directed arcs.
func (s *MemSource) NumArcs() int64 { return s.g.NumArcs() }

// Directed reports whether the graph is directed.
func (s *MemSource) Directed() bool { return s.g.Directed() }

// Degree returns the out-degree of v.
func (s *MemSource) Degree(v graph.V) int { return s.g.Degree(v) }

// Neighbors returns v's sorted neighbor list (a view into the CSR arrays,
// never invalidated for in-memory sources).
func (s *MemSource) Neighbors(v graph.V) ([]graph.V, error) { return s.g.Neighbors(v), nil }

// Scan streams every vertex's adjacency in ascending vertex order.
func (s *MemSource) Scan(fn func(u graph.V, adj []graph.V) error) error {
	for v := graph.V(0); int(v) < s.g.NumVertices(); v++ {
		if err := fn(v, s.g.Neighbors(v)); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns zero counters: in-memory access is not metered I/O.
func (s *MemSource) Stats() IOStats { return IOStats{} }

// MemProvider serves an in-memory graph to any number of workers. Handles
// share the immutable CSR arrays, so one handle serves all workers.
type MemProvider struct {
	h MemSource
}

// InMemory wraps g as a Provider.
func InMemory(g *graph.Graph) *MemProvider {
	return &MemProvider{h: MemSource{g: g}}
}

// NumVertices returns the number of vertices.
func (p *MemProvider) NumVertices() int { return p.h.g.NumVertices() }

// NumArcs returns the number of stored directed arcs.
func (p *MemProvider) NumArcs() int64 { return p.h.g.NumArcs() }

// Handle returns the shared in-memory handle (immutable, so one suffices).
func (p *MemProvider) Handle(w int) GraphSource { return &p.h }

// Stats returns zero counters.
func (p *MemProvider) Stats() IOStats { return IOStats{} }

// Footprint reports the resident CSR size.
func (p *MemProvider) Footprint() Footprint {
	return Footprint{
		Kind:          "mem",
		ResidentBytes: int64(p.h.g.NumVertices()+1)*8 + p.h.g.NumArcs()*4,
	}
}

// Close is a no-op.
func (p *MemProvider) Close() error { return nil }
