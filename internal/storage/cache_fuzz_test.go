package storage

import (
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// cacheModel is the serial reference for one CachedSource handle: the
// resident blocks in recency order (most recent first), each charged its
// decoded size — the offset table plus the ids, four bytes an entry — against
// the budget. It reads only the file's block index; none of the cache's own
// code.
type cacheModel struct {
	blocks []BlockMeta
	budget int64
	mru    bool
	used   int64
	order  []int
	st     IOStats
}

func (m *cacheModel) charge(b int) int64 {
	return 4*int64(m.blocks[b].Count+1) + 4*int64(m.blocks[b].ArcCount)
}

// access records one Neighbors(v).
func (m *cacheModel) access(v graph.V) {
	b := 0
	for m.blocks[b].First+graph.V(m.blocks[b].Count) <= v {
		b++
	}
	if i := slices.Index(m.order, b); i >= 0 {
		m.st.Hits++
		m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, b)
		return
	}
	m.st.Misses++
	for m.used+m.charge(b) > m.budget && len(m.order) > 0 {
		victim := len(m.order) - 1
		if m.mru {
			victim = 0
		}
		m.used -= m.charge(m.order[victim])
		m.order = slices.Delete(m.order, victim, victim+1)
		m.st.Evictions++
	}
	m.order = slices.Insert(m.order, 0, b)
	m.used += m.charge(b)
	m.st.BlocksRead++
	m.st.BytesRead += int64(m.blocks[b].EncLen) + 4
}

// scan records one Scan: every block read, the cache untouched.
func (m *cacheModel) scan() {
	for _, meta := range m.blocks {
		m.st.BlocksRead++
		m.st.BytesRead += int64(meta.EncLen) + 4
	}
}

// FuzzCachedSourceVsModel drives one cached handle and cacheModel with the
// same access trace — ascending sweeps, repeats of one vertex, random ids and
// whole-file scans — over a drawn graph, block size, budget and eviction
// policy, and requires every list to equal the graph's and every IOStats
// counter to equal the model's after each step.
func FuzzCachedSourceVsModel(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(0), false, uint8(40))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(60), true, uint8(80))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(255), false, uint8(30))
	f.Add(uint64(4), uint8(3), uint8(3), uint8(10), true, uint8(120))
	f.Fuzz(func(t *testing.T, seed uint64, shape, blockSel, budgetSel uint8, mru bool, ops uint8) {
		rng := rand.New(rand.NewPCG(seed, 61))
		var g *graph.Graph
		switch shape % 4 {
		case 0:
			g = gen.RMAT(5+rng.IntN(4), 1+rng.IntN(8), int64(seed))
		case 1:
			n := 1 + rng.IntN(300)
			g = gen.ErdosRenyi(n, int64(rng.IntN(4*n)), int64(seed))
		case 2:
			g = gen.Clique(1 + rng.IntN(60))
		default: // long runs of isolated vertices between hubs
			n := 1 + rng.IntN(400)
			b := graph.NewBuilder(n, false)
			for i := rng.IntN(8); i > 0; i-- {
				u := graph.V(rng.IntN(n))
				for j := rng.IntN(n); j > 0; j-- {
					if w := graph.V(rng.IntN(n)); w != u {
						b.AddEdge(u, w)
					}
				}
			}
			g = b.Build()
		}
		path := filepath.Join(t.TempDir(), "g.gsb")
		info, err := Write(path, g, Options{BlockBytes: []int{16, 64, 256, 1024}[blockSel%4]})
		if err != nil {
			t.Fatal(err)
		}
		var decoded int64
		file, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		blocks := file.idx
		file.Close()
		for _, m := range blocks {
			decoded += 4*int64(m.Count+1) + 4*int64(m.ArcCount)
		}
		pol, model := LRU, &cacheModel{blocks: blocks, mru: mru}
		if mru {
			pol = MRU
		}
		model.budget = info.MaxDecodedBytes + decoded*int64(budgetSel)/255
		p, err := OpenCached(path, info.ResidentBytes+model.budget, 1, pol)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		h := p.Handle(0)
		n := g.NumVertices()
		get := func(v graph.V) {
			t.Helper()
			adj, err := h.Neighbors(v)
			if err != nil {
				t.Fatalf("Neighbors(%d): %v", v, err)
			}
			if !slices.Equal(adj, g.Neighbors(v)) {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, adj, g.Neighbors(v))
			}
			model.access(v)
		}
		last := graph.V(0)
		for op := 0; op < int(ops%128); op++ {
			switch k := rng.IntN(8); {
			case k == 0:
				for v := graph.V(rng.IntN(n)); int(v) < n; v++ {
					get(v)
				}
				last = graph.V(n - 1)
			case k == 1:
				for i := rng.IntN(4); i >= 0; i-- {
					get(last)
				}
			case k == 2:
				err := h.Scan(func(u graph.V, adj []graph.V) error {
					if !slices.Equal(adj, g.Neighbors(u)) {
						t.Fatalf("Scan(%d) = %v, want %v", u, adj, g.Neighbors(u))
					}
					return nil
				})
				if err != nil {
					t.Fatalf("Scan: %v", err)
				}
				model.scan()
			default:
				last = graph.V(rng.IntN(n))
				get(last)
			}
			if got := h.Stats(); got != model.st {
				t.Fatalf("op %d: stats %+v, model %+v (budget %d, %d blocks, %v)", op, got, model.st, model.budget, len(blocks), pol)
			}
		}
	})
}
