package storage

import (
	"os"

	"graphsys/internal/graph"
)

// EvictPolicy selects which cached block makes room for a new one.
//
// LRU is right for skewed or localized access (GNN neighbor sampling). For a
// cyclic sequential sweep — PageRank visiting every vertex in order, round
// after round — LRU below the working-set size degrades to ~0% hits
// (sequential flooding: every block is evicted just before its next use).
// MRU is the classic fix: it sacrifices the block just used and thereby pins
// a stable prefix of the working set, giving a hit ratio close to the cached
// fraction of the graph.
type EvictPolicy int

const (
	// LRU evicts the least-recently-used block.
	LRU EvictPolicy = iota
	// MRU evicts the most-recently-used block (best for cyclic scans).
	MRU
)

// String returns "lru" or "mru".
func (p EvictPolicy) String() string {
	if p == MRU {
		return "mru"
	}
	return "lru"
}

// ParseEvictPolicy parses "lru" or "mru".
func ParseEvictPolicy(s string) (EvictPolicy, error) {
	switch s {
	case "lru", "":
		return LRU, nil
	case "mru":
		return MRU, nil
	}
	return LRU, errFormat("unknown eviction policy %q (want lru or mru)", s)
}

// entry is one cached block: its CRC-checked encoded payload, in a buffer
// the entry owns, and the byte offset at which each vertex's list starts
// (Count+1 entries, from the structure pass on the miss). A list is decoded
// only when Neighbors asks for it. bytes, the budget charge, is the block's
// decoded size (BlockMeta.decodedBytes), not the smaller size the entry
// holds (2.7× smaller on an R-MAT(16,16) file), so eviction and every
// counter are those of a decoded-block cache of the same budget. Entries
// thread on the recency list (head is most recent) and recycle through a
// freelist, buffers included, so steady-state misses do not allocate.
type entry struct {
	block      int32
	first      graph.V
	count      int32
	offs       []int32
	enc        []byte
	bytes      int64
	prev, next *entry
}

// CachedSource is one worker's bounded-cache handle over a block file. It is
// not safe for concurrent use; a Provider hands each worker its own, so the
// hit/miss counters are a deterministic function of that worker's access
// sequence alone.
type CachedSource struct {
	f      *File
	pol    EvictPolicy
	budget int64
	used   int64

	table      map[int32]*entry
	head, tail *entry
	free       *entry
	last       *entry

	adj   []graph.V // the last decoded list, grown to the largest degree read
	sbuf  scanBuf
	stats IOStats
}

// newCachedSource builds a handle with a block budget of budgetBytes,
// charged at each block's decoded size, which must hold the largest block
// (checked by the provider).
func newCachedSource(f *File, budgetBytes int64, pol EvictPolicy) *CachedSource {
	return &CachedSource{
		f:      f,
		pol:    pol,
		budget: budgetBytes,
		table:  make(map[int32]*entry),
	}
}

// NumVertices returns the number of vertices.
func (s *CachedSource) NumVertices() int { return s.f.n }

// NumArcs returns the number of stored directed arcs.
func (s *CachedSource) NumArcs() int64 { return s.f.arcs }

// Directed reports whether the stored graph is directed.
func (s *CachedSource) Directed() bool { return s.f.directed }

// Degree returns the out-degree of v from the resident degree table.
func (s *CachedSource) Degree(v graph.V) int { return int(s.f.degs[v]) }

// Stats returns the handle's cumulative I/O counters.
func (s *CachedSource) Stats() IOStats { return s.stats }

// CacheBytes returns the handle's block budget (charged at decoded size).
func (s *CachedSource) CacheBytes() int64 { return s.budget }

// Neighbors returns v's sorted neighbor list, decoded from the cached block
// into a buffer the handle owns and valid until the next Neighbors or Scan
// call on this handle. Only v's list is decoded, every id range-checked; a
// cache hit performs no allocation and no disk I/O.
func (s *CachedSource) Neighbors(v graph.V) ([]graph.V, error) {
	e := s.last
	if e == nil || v < e.first || v >= e.first+graph.V(e.count) {
		var err error
		if e, err = s.get(int32(s.f.blockOf(v))); err != nil {
			return nil, err
		}
	} else {
		s.stats.Hits++
	}
	deg := int(s.f.degs[v])
	if cap(s.adj) < deg {
		//lint:allow hotalloc warm-up growth only: the list buffer grows to the largest degree read, then is reused for every list
		s.adj = make([]graph.V, deg)
	}
	adj := s.adj[:deg]
	if err := s.f.decodeList(int(e.block), e.enc, e.offs, v, adj); err != nil {
		return nil, err
	}
	return adj, nil
}

// get returns the entry for block b; on a miss it reads and CRC-checks the
// payload into the entry's buffer and runs the structure pass.
func (s *CachedSource) get(b int32) (*entry, error) {
	if e, ok := s.table[b]; ok {
		s.stats.Hits++
		s.touch(e)
		s.last = e
		return e, nil
	}
	s.stats.Misses++
	m := s.f.idx[b]
	need := m.decodedBytes()
	for s.used+need > s.budget && s.head != nil {
		s.evict()
	}
	e := s.alloc(int(m.Count) + 1)
	e.block = b
	e.first = m.First
	e.count = m.Count
	e.bytes = need
	payload, err := s.f.readBlock(int(b), e.enc[:cap(e.enc)])
	if err != nil {
		s.release(e)
		return nil, err
	}
	e.enc = payload
	s.stats.BlocksRead++
	s.stats.BytesRead += int64(m.EncLen) + crcBytes
	if err := s.f.indexBlock(int(b), payload, e.offs); err != nil {
		s.release(e)
		return nil, err
	}
	s.table[b] = e
	s.pushFront(e)
	s.used += need
	s.last = e
	return e, nil
}

// touch moves e to the recency-list front.
func (s *CachedSource) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// evict removes one block per the policy and recycles its entry.
func (s *CachedSource) evict() {
	victim := s.tail
	if s.pol == MRU {
		victim = s.head
	}
	s.unlink(victim)
	delete(s.table, victim.block)
	s.used -= victim.bytes
	if s.last == victim {
		s.last = nil
	}
	s.stats.Evictions++
	s.release(victim)
}

// alloc pops a freelist entry (growing its offset table if needed) or makes
// a new one; readBlock grows the payload buffer.
func (s *CachedSource) alloc(offsLen int) *entry {
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
	} else {
		//lint:allow hotalloc freelist miss: one entry per resident block, bounded by the cache budget, recycled forever after
		e = &entry{}
	}
	if cap(e.offs) < offsLen {
		//lint:allow hotalloc warm-up growth only: offs grows to the largest block's vertex count, then the freelist recycles it
		e.offs = make([]int32, offsLen)
	}
	e.offs = e.offs[:offsLen]
	return e
}

// release returns e (and its buffers) to the freelist.
func (s *CachedSource) release(e *entry) {
	e.prev = nil
	e.next = s.free
	s.free = e
}

func (s *CachedSource) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *CachedSource) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Scan streams every vertex's adjacency in order through a private buffer,
// bypassing (and not disturbing) the cache; bytes and blocks read are
// metered. It invalidates any outstanding Neighbors view.
func (s *CachedSource) Scan(fn func(u graph.V, adj []graph.V) error) error {
	bytes, blocks, err := s.f.scanBlocks(&s.sbuf, fn)
	s.stats.BytesRead += bytes
	s.stats.BlocksRead += blocks
	return err
}

// CachedProvider hands out per-worker CachedSource handles over one block
// file, splitting the cache budget evenly. Closing it closes the file.
type CachedProvider struct {
	f             *File
	handles       []*CachedSource
	perHandle     int64
	removeOnClose string
}

// newCachedProvider builds per-worker cached handles over f. budgetBytes is
// the total memory budget for the graph: the resident part (degree table +
// block index) comes off the top and the remainder is split evenly across
// workers as block cache, charged at decoded size. If any worker's share
// cannot hold the largest decoded block, the budget is rejected with a
// wrapped ErrBudget — at construction, not as an OOM mid-run. The provider takes ownership of f.
func newCachedProvider(f *File, budgetBytes int64, workers int, pol EvictPolicy) (*CachedProvider, error) {
	if workers <= 0 {
		workers = 1
	}
	cacheTotal := budgetBytes - f.ResidentBytes()
	per := cacheTotal / int64(workers)
	if per < f.MaxDecodedBytes() {
		return nil, errBudget(
			"budget %d B leaves %d B/worker of block cache (%d workers, resident %d B); largest decoded block needs %d B — budget must be at least %d B",
			budgetBytes, per, workers, f.ResidentBytes(), f.MaxDecodedBytes(),
			f.ResidentBytes()+int64(workers)*f.MaxDecodedBytes())
	}
	p := &CachedProvider{f: f, perHandle: per}
	for w := 0; w < workers; w++ {
		p.handles = append(p.handles, newCachedSource(f, per, pol))
	}
	return p, nil
}

// OpenCached opens path and builds a cached provider over it; on budget or
// format errors the file is closed before returning.
func OpenCached(path string, budgetBytes int64, workers int, pol EvictPolicy) (*CachedProvider, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	p, err := newCachedProvider(f, budgetBytes, workers, pol)
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// File returns the underlying block file.
func (p *CachedProvider) File() *File { return p.f }

// NumVertices returns the number of vertices.
func (p *CachedProvider) NumVertices() int { return p.f.n }

// NumArcs returns the number of stored directed arcs.
func (p *CachedProvider) NumArcs() int64 { return p.f.arcs }

// Handle returns worker w's private source handle.
func (p *CachedProvider) Handle(w int) GraphSource { return p.handles[w] }

// Stats returns the sum of all handles' I/O counters.
func (p *CachedProvider) Stats() IOStats {
	var t IOStats
	for _, h := range p.handles {
		t = t.Add(h.stats)
	}
	return t
}

// Footprint describes the provider's memory/disk accounting.
func (p *CachedProvider) Footprint() Footprint {
	return Footprint{
		Kind:          "disk",
		FileBytes:     p.f.fileBytes,
		ResidentBytes: p.f.ResidentBytes(),
		CacheBytes:    p.perHandle * int64(len(p.handles)),
	}
}

// Close closes the block file (and removes it, for spill providers).
func (p *CachedProvider) Close() error {
	err := p.f.Close()
	if p.removeOnClose != "" {
		if rerr := os.Remove(p.removeOnClose); err == nil && !os.IsNotExist(rerr) {
			err = rerr
		}
	}
	return err
}
