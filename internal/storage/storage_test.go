package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
)

// writeTemp writes g to a block file under t.TempDir and returns the path.
func writeTemp(t *testing.T, g *graph.Graph, opts Options) (string, *Info) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gsb")
	info, err := Write(path, g, opts)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, info
}

// checkSourceMatchesGraph verifies Degree/Neighbors/Scan of src against g.
func checkSourceMatchesGraph(t *testing.T, src GraphSource, g *graph.Graph) {
	t.Helper()
	if src.NumVertices() != g.NumVertices() || src.NumArcs() != g.NumArcs() {
		t.Fatalf("geometry: source %d/%d, graph %d/%d",
			src.NumVertices(), src.NumArcs(), g.NumVertices(), g.NumArcs())
	}
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		if src.Degree(v) != g.Degree(v) {
			t.Fatalf("degree(%d): source %d, graph %d", v, src.Degree(v), g.Degree(v))
		}
		got, err := src.Neighbors(v)
		if err != nil {
			t.Fatalf("Neighbors(%d): %v", v, err)
		}
		want := g.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d): len %d want %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Neighbors(%d)[%d]: %d want %d", v, i, got[i], want[i])
			}
		}
	}
	next := graph.V(0)
	err := src.Scan(func(u graph.V, adj []graph.V) error {
		if u != next {
			t.Fatalf("Scan order: got %d want %d", u, next)
		}
		next++
		want := g.Neighbors(u)
		if len(adj) != len(want) {
			t.Fatalf("Scan(%d): len %d want %d", u, len(adj), len(want))
		}
		for i := range want {
			if adj[i] != want[i] {
				t.Fatalf("Scan(%d)[%d]: %d want %d", u, i, adj[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if int(next) != g.NumVertices() {
		t.Fatalf("Scan visited %d of %d vertices", next, g.NumVertices())
	}
}

func TestDiskSourceMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"rmat", gen.RMAT(10, 8, 1), Options{BlockBytes: 1 << 10}},
		{"rmat-tiny-blocks", gen.RMAT(8, 4, 2), Options{BlockBytes: 16}},
		{"grid", gen.Grid(17, 13), Options{}},
		{"clique-megablock", gen.Clique(300), Options{BlockBytes: 64}},
		{"empty", graph.FromEdges(100, nil), Options{BlockBytes: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, info := writeTemp(t, tc.g, tc.opts)
			if info.NumArcs != tc.g.NumArcs() {
				t.Fatalf("info arcs %d, graph %d", info.NumArcs, tc.g.NumArcs())
			}
			p, err := OpenCached(path, 1<<30, 2, LRU)
			if err != nil {
				t.Fatalf("OpenCached: %v", err)
			}
			defer p.Close()
			checkSourceMatchesGraph(t, p.Handle(0), tc.g)
			checkSourceMatchesGraph(t, p.Handle(1), tc.g)
			checkSourceMatchesGraph(t, InMemory(tc.g).Handle(0), tc.g)
		})
	}
}

// TestZeroDegreeRuns covers blocks made mostly of isolated vertices — a long
// zero-degree run must still be covered by the index and decode to empty
// lists.
func TestZeroDegreeRuns(t *testing.T) {
	n := 10_000
	b := graph.NewBuilder(n, false)
	// Only vertices divisible by 997 get edges; everything else is isolated.
	for v := 0; v < n; v += 997 {
		b.AddEdge(graph.V(v), graph.V((v+1)%n))
	}
	g := b.Build()
	path, info := writeTemp(t, g, Options{BlockBytes: 64})
	if info.NumBlocks == 0 {
		t.Fatal("no blocks written")
	}
	p, err := OpenCached(path, 1<<30, 1, LRU)
	if err != nil {
		t.Fatalf("OpenCached: %v", err)
	}
	defer p.Close()
	checkSourceMatchesGraph(t, p.Handle(0), g)
}

func TestWriteStreamByteIdentical(t *testing.T) {
	// A builder graph with duplicate edges and self-loops: Builder dedups and
	// drops loops; WriteStream must apply the same normalization.
	n := 500
	type arc struct{ u, v graph.V }
	var arcs []arc
	emitRaw := func(emit func(u, v graph.V)) {
		for _, a := range arcs {
			emit(a.u, a.v)
			emit(a.v, a.u) // undirected: both directions
		}
	}
	b := graph.NewBuilder(n, false)
	rng := []int{7, 3, 11, 13} // fixed stride mix, repeats included
	for i := 0; i < 4000; i++ {
		u := graph.V(i % n)
		v := graph.V((i*rng[i%4] + i/7) % n)
		arcs = append(arcs, arc{u, v})
		if u != v {
			b.AddEdge(u, v)
		}
		if i%17 == 0 {
			arcs = append(arcs, arc{u, u}) // self-loop: must be dropped
		}
		if i%5 == 0 {
			arcs = append(arcs, arc{u, v}) // duplicate: must be deduped
		}
	}
	g := b.Build()

	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.gsb")
	pathB := filepath.Join(dir, "b.gsb")
	opts := Options{BlockBytes: 256}
	if _, err := Write(pathA, g, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := WriteStream(pathB, n, false, emitRaw, opts); err != nil {
		t.Fatalf("WriteStream: %v", err)
	}
	ba, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatalf("Write and WriteStream produced different files (%d vs %d bytes)", len(ba), len(bb))
	}
}

// TestRMATStreamByteIdentical pins the capacity-build path: streaming the
// R-MAT arc sequence through WriteStream yields the byte-identical file to
// materializing the graph and calling Write.
func TestRMATStreamByteIdentical(t *testing.T) {
	const scale, ef, seed = 10, 8, 42
	g := gen.RMAT(scale, ef, seed)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "mat.gsb")
	pathB := filepath.Join(dir, "stream.gsb")
	opts := Options{BlockBytes: 1 << 10}
	if _, err := Write(pathA, g, opts); err != nil {
		t.Fatal(err)
	}
	_, err := WriteStream(pathB, 1<<scale, false, func(emit func(u, v graph.V)) {
		gen.RMATStream(scale, ef, seed, func(u, v graph.V) {
			emit(u, v)
			emit(v, u)
		})
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := os.ReadFile(pathA)
	bb, _ := os.ReadFile(pathB)
	if string(ba) != string(bb) {
		t.Fatalf("streamed R-MAT file differs from materialized one (%d vs %d bytes)", len(ba), len(bb))
	}
}

func TestCorruptBlockReturnsError(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	path, info := writeTemp(t, g, Options{BlockBytes: 512})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the blocks section (past header, index and
	// degree table) so Open still succeeds but a block read fails its CRC.
	blocksStart := int64(headerBytes) + int64(info.NumBlocks)*indexEntryBytes + int64(info.NumVertices)*4
	raw[blocksStart+(info.FileBytes-blocksStart)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenCached(path, 1<<30, 1, LRU)
	if err != nil {
		t.Fatalf("OpenCached after corruption: %v (corruption must surface at read, not open)", err)
	}
	defer p.Close()
	h := p.Handle(0)
	var sawCorrupt bool
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		if _, err := h.Neighbors(v); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Neighbors(%d): got %v, want wrapped ErrCorrupt", v, err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("no corruption detected after flipping a block byte")
	}
	if err := h.Scan(func(graph.V, []graph.V) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over corrupt file: got %v, want wrapped ErrCorrupt", err)
	}
}

// plantCorruption rewrites block b of the file at path with edit applied to
// its payload and a fresh CRC, moving the later blocks, so the damage passes
// the checksum and only the structure pass and the list decode can catch it.
func plantCorruption(t *testing.T, path string, b int, edit func(payload []byte) []byte) {
	t.Helper()
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := f.idx
	f.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	out := slices.Clone(raw[:idx[0].Off])
	for i, m := range idx {
		payload := slices.Clone(raw[m.Off : m.Off+int64(m.EncLen)])
		if i == b {
			payload = edit(payload)
		}
		ent := out[headerBytes+i*indexEntryBytes:]
		le.PutUint32(ent[12:16], uint32(len(payload)))
		le.PutUint64(ent[16:24], uint64(len(out)))
		out = append(out, payload...)
		out = le.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptListsBehindValidCRC pins the checks a cached block runs after
// its CRC: the structure pass on the miss (a list cut short, bytes after the
// last list) fails the first access to the block, and the per-list decode
// fails only the vertex whose list holds an out-of-range id. Scan fails in
// every case, and no access panics or returns an out-of-range id.
func TestCorruptListsBehindValidCRC(t *testing.T) {
	g := gen.RMAT(9, 8, 3)
	n := g.NumVertices()
	path, info := writeTemp(t, g, Options{BlockBytes: 512})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := info.NumBlocks / 2
	m := f.idx[b]
	f.Close()
	// the victim: a vertex past the block's first with at least two ids
	v := m.First + 1
	for g.Degree(v) < 2 {
		v++
	}
	if v >= m.First+graph.V(m.Count) {
		t.Fatalf("block %d has no vertex of degree ≥ 2 after its first", b)
	}
	var start, end int // v's list within the payload
	for u := m.First; u <= v; u++ {
		enc, err := appendAdj(nil, g.Neighbors(u))
		if err != nil {
			t.Fatal(err)
		}
		start, end = end, end+len(enc)
	}
	for _, tc := range []struct {
		name     string
		edit     func(p []byte) []byte
		wholeBad bool // the whole block fails, not only v
	}{
		{"out-of-range id", func(p []byte) []byte {
			bad := slices.Clone(g.Neighbors(v))
			bad[len(bad)-1] = graph.V(n + 3)
			enc, err := appendAdj(nil, bad)
			if err != nil {
				t.Fatal(err)
			}
			return slices.Concat(p[:start], enc, p[end:])
		}, false},
		{"list cut short", func(p []byte) []byte { return slices.Concat(p[:end-1], p[end:]) }, true},
		{"trailing bytes", func(p []byte) []byte { return append(p, 0) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "bad.gsb")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cp, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			plantCorruption(t, cp, b, tc.edit)
			p, err := OpenCached(cp, 1<<30, 1, LRU)
			if err != nil {
				t.Fatalf("OpenCached: %v (the corruption must surface at read)", err)
			}
			defer p.Close()
			h := p.Handle(0)
			for u := graph.V(0); int(u) < n; u++ {
				adj, err := h.Neighbors(u)
				inBlock := u >= m.First && u < m.First+graph.V(m.Count)
				if wantErr := u == v || (tc.wholeBad && inBlock); wantErr {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("Neighbors(%d): got %v, want wrapped ErrCorrupt", u, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Neighbors(%d): %v", u, err)
				}
				if !slices.Equal(adj, g.Neighbors(u)) {
					t.Fatalf("Neighbors(%d) = %v, want %v", u, adj, g.Neighbors(u))
				}
			}
			err = h.Scan(func(u graph.V, adj []graph.V) error {
				for _, w := range adj {
					if w < 0 || int(w) >= n {
						t.Fatalf("Scan(%d) passed out-of-range id %d", u, w)
					}
				}
				return nil
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Scan: got %v, want wrapped ErrCorrupt", err)
			}
		})
	}
}

func TestTruncatedFileFailsOpen(t *testing.T) {
	g := gen.RMAT(8, 8, 4)
	path, _ := writeTemp(t, g, Options{})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(raw) - 3, headerBytes + 5, 10} {
		p := filepath.Join(t.TempDir(), "cut.gsb")
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p); !errors.Is(err, ErrFormat) {
			t.Fatalf("Open(truncated at %d): got %v, want wrapped ErrFormat", cut, err)
		}
	}
}

func TestBudgetRejected(t *testing.T) {
	g := gen.RMAT(10, 8, 5)
	path, info := writeTemp(t, g, Options{BlockBytes: 1 << 10})
	// A budget below resident + one decoded block per worker must be a typed
	// error at construction.
	_, err := OpenCached(path, info.ResidentBytes+info.MaxDecodedBytes/2, 1, LRU)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget: got %v, want wrapped ErrBudget", err)
	}
	// With w workers the same per-worker floor applies to each share.
	_, err = OpenCached(path, info.ResidentBytes+3*info.MaxDecodedBytes, 4, LRU)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("under-provisioned 4-worker budget: got %v, want wrapped ErrBudget", err)
	}
	// The documented minimum must be accepted.
	p, err := OpenCached(path, info.ResidentBytes+4*info.MaxDecodedBytes, 4, LRU)
	if err != nil {
		t.Fatalf("minimum budget rejected: %v", err)
	}
	p.Close()
}

// sweep runs `rounds` full in-order Neighbors sweeps on h.
func sweep(t *testing.T, h GraphSource, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for v := graph.V(0); int(v) < h.NumVertices(); v++ {
			if _, err := h.Neighbors(v); err != nil {
				t.Fatalf("Neighbors(%d): %v", v, err)
			}
		}
	}
}

// TestEvictionPolicies pins the sequential-flooding behavior the two
// policies exist for: on a cyclic sequential sweep with a cache smaller than
// the working set, LRU evicts every block just before its reuse (~0 block
// hits beyond the intra-block ones) while MRU pins a stable prefix and
// converts roughly the cached fraction of accesses into hits.
func TestEvictionPolicies(t *testing.T) {
	g := gen.RMAT(11, 8, 6)
	path, info := writeTemp(t, g, Options{BlockBytes: 1 << 10})
	if info.NumBlocks < 8 {
		t.Fatalf("want ≥8 blocks for a meaningful sweep, got %d", info.NumBlocks)
	}
	// Budget ≈ resident + half the decoded working set.
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded int64
	for _, m := range f.idx {
		decoded += m.decodedBytes()
	}
	f.Close()
	budget := info.ResidentBytes + decoded/2

	stats := map[EvictPolicy]IOStats{}
	for _, pol := range []EvictPolicy{LRU, MRU} {
		p, err := OpenCached(path, budget, 1, pol)
		if err != nil {
			t.Fatalf("OpenCached(%v): %v", pol, err)
		}
		h := p.Handle(0)
		sweep(t, h, 1) // cold pass
		cold := h.Stats()
		sweep(t, h, 4) // steady-state cyclic passes
		stats[pol] = h.Stats().Sub(cold)
		p.Close()
	}
	// Block-level requests per steady pass = NumBlocks (the intra-block
	// Neighbors calls hit the lastBlock fast path and are hits for both).
	// Subtract those fast-path hits to compare block fetch behavior: MRU must
	// fetch far fewer blocks than LRU.
	if lru, mru := stats[LRU], stats[MRU]; mru.Misses*2 > lru.Misses {
		t.Fatalf("MRU should miss at most half as often as LRU on a cyclic sweep: lru=%+v mru=%+v", lru, mru)
	}
	if stats[MRU].HitRatio() <= stats[LRU].HitRatio() {
		t.Fatalf("MRU hit ratio %.3f not above LRU %.3f on cyclic sweep",
			stats[MRU].HitRatio(), stats[LRU].HitRatio())
	}
}

// TestStatsDeterministic pins that the cache meters are a pure function of
// the access sequence: two identical runs produce identical counters.
func TestStatsDeterministic(t *testing.T) {
	g := gen.RMAT(10, 8, 7)
	path, info := writeTemp(t, g, Options{BlockBytes: 1 << 10})
	budget := info.ResidentBytes + 4*info.MaxDecodedBytes
	run := func(pol EvictPolicy) IOStats {
		p, err := OpenCached(path, budget, 1, pol)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		h := p.Handle(0)
		// A mixed access pattern: strided, then sequential, then a scan.
		for v := 0; v < g.NumVertices(); v += 37 {
			if _, err := h.Neighbors(graph.V(v)); err != nil {
				t.Fatal(err)
			}
		}
		sweep(t, h, 2)
		if err := h.Scan(func(graph.V, []graph.V) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return h.Stats()
	}
	for _, pol := range []EvictPolicy{LRU, MRU} {
		a, b := run(pol), run(pol)
		if a != b {
			t.Fatalf("%v stats not deterministic: %+v vs %+v", pol, a, b)
		}
	}
}

// TestScanBypassesCache pins that Scan streams without touching hit/miss
// accounting or evicting cached blocks.
func TestScanBypassesCache(t *testing.T) {
	g := gen.RMAT(10, 8, 8)
	path, info := writeTemp(t, g, Options{BlockBytes: 1 << 10})
	p, err := OpenCached(path, info.ResidentBytes+4*info.MaxDecodedBytes, 1, LRU)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handle(0).(*CachedSource)
	if _, err := h.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	before := h.Stats()
	cachedBefore := len(h.table)
	if err := h.Scan(func(graph.V, []graph.V) error { return nil }); err != nil {
		t.Fatal(err)
	}
	d := h.Stats().Sub(before)
	if d.Hits != 0 || d.Misses != 0 || d.Evictions != 0 {
		t.Fatalf("Scan disturbed cache accounting: %+v", d)
	}
	if d.BytesRead <= 0 || d.BlocksRead != int64(info.NumBlocks) {
		t.Fatalf("Scan metering wrong: %+v (want %d blocks)", d, info.NumBlocks)
	}
	if len(h.table) != cachedBefore {
		t.Fatalf("Scan changed cache population: %d -> %d", cachedBefore, len(h.table))
	}
}

// TestHitPathZeroAllocs pins the hot-path contract: once the working set is
// cached, Neighbors performs zero allocations per call.
func TestHitPathZeroAllocs(t *testing.T) {
	g := gen.RMAT(10, 8, 9)
	path, _ := writeTemp(t, g, Options{BlockBytes: 1 << 12})
	p, err := OpenCached(path, 1<<30, 1, LRU) // everything fits: all hits after warmup
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handle(0)
	sweep(t, h, 1) // warm the cache
	n := g.NumVertices()
	v := 0
	allocs := testing.AllocsPerRun(5000, func() {
		if _, err := h.Neighbors(graph.V(v)); err != nil {
			t.Fatal(err)
		}
		v = (v + 41) % n
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Neighbors allocates %.1f times per call, want 0", allocs)
	}
}

// TestFreelistReusesBuffers pins that a thrashing cache recycles entries
// instead of allocating fresh decode buffers per miss.
func TestFreelistReusesBuffers(t *testing.T) {
	g := gen.RMAT(10, 8, 10)
	path, info := writeTemp(t, g, Options{BlockBytes: 1 << 10})
	p, err := OpenCached(path, info.ResidentBytes+2*info.MaxDecodedBytes, 1, LRU)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.Handle(0)
	sweep(t, h, 2) // warm: buffers grown to max block size, freelist primed
	n := g.NumVertices()
	v := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := h.Neighbors(graph.V(v)); err != nil {
			t.Fatal(err)
		}
		v = (v + 977) % n // stride past block boundaries: mostly misses
	})
	// Steady-state misses reuse freelist entries and their buffers; allow a
	// fractional allocation for map internals.
	if allocs > 1 {
		t.Fatalf("thrashing cache allocates %.2f times per access, want ≤1", allocs)
	}
}

func TestSpillProviderLifecycle(t *testing.T) {
	g := gen.RMAT(9, 8, 11)
	pol := &Policy{Disk: true, BudgetBytes: 1 << 30, BlockBytes: 1 << 10, Dir: t.TempDir()}
	p, err := pol.spill(g, 2)
	if err != nil {
		t.Fatalf("spill: %v", err)
	}
	spillPath := p.File().Path()
	if _, err := os.Stat(spillPath); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	checkSourceMatchesGraph(t, p.Handle(0), g)
	fp := p.Footprint()
	if fp.Kind != "disk" || fp.FileBytes <= 0 || fp.CacheBytes <= 0 {
		t.Fatalf("bad footprint: %+v", fp)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(spillPath); !os.IsNotExist(err) {
		t.Fatalf("spill file not removed on Close: %v", err)
	}
}

func TestSpillBudgetTyped(t *testing.T) {
	g := gen.RMAT(9, 8, 12)
	pol := &Policy{Disk: true, BudgetBytes: 64, BlockBytes: 1 << 10, Dir: t.TempDir()}
	if _, err := pol.spill(g, 2); !errors.Is(err, ErrBudget) {
		t.Fatalf("spill with 64-byte budget: got %v, want wrapped ErrBudget", err)
	}
}

func TestCompressionRatio(t *testing.T) {
	// R-MAT neighbor ids cluster low, so gap coding should beat raw 4-byte
	// ids comfortably (this graph measures ≈3.3×); the floor is 1.5.
	g := gen.RMAT(12, 16, 13)
	_, info := writeTemp(t, g, Options{})
	if r := info.CompressionRatio(); r < 1.5 {
		t.Fatalf("compression ratio %.2f below 1.5 (file %d B, raw %d B)",
			r, info.FileBytes, info.RawCSRBytes)
	}
}
