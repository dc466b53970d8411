// Package storage is the shared out-of-core graph layer: a compressed
// on-disk CSR block format plus a bounded, metered block cache, behind a
// GraphSource abstraction every engine accepts (pregel, blogel, gnndist,
// graphd). It generalizes the GraphD-style "vertex state in memory, edges on
// disk" trade (DESIGN.md §3.13) from one engine into runtime infrastructure:
//
//   - On disk, the adjacency lives in fixed-target-size edge blocks. Each
//     block covers a contiguous vertex range and stores every vertex's sorted
//     neighbor list gap-encoded (first id as a varint, then varint gaps minus
//     one — neighbor lists are strictly increasing), which is the
//     delta/varint recipe the Besta graph-database survey catalogs as the
//     standard beyond-RAM layout. Every block carries a CRC32 so a corrupt
//     read surfaces as a typed error, never a panic or a garbage graph.
//
//   - In memory, only O(|V|) state is resident: the per-vertex degree table
//     and the block index. Adjacency comes through a bounded block cache
//     (LRU or MRU eviction) whose budget is enforced up front — a budget too
//     small to hold even one decoded block is ErrBudget at open time, not an
//     OOM mid-run. A cached block stays encoded, with an offset per list, and
//     is charged its decoded size; Neighbors decodes the one list it returns.
//     Buffers are recycled through evicted entries, so a steady-state cache
//     hit performs zero allocations.
//
//   - Engines see a GraphSource: Degree, Neighbors(v) (a view into
//     handle-owned storage, valid until the next call on the same handle), a
//     sequential block Scan, and cumulative IOStats (hits, misses,
//     evictions, bytes read). InMemory wraps today's *graph.Graph — the
//     equivalence oracle — and CachedProvider serves the same interface from
//     disk. Handles are per worker: each worker owns a private slice of the
//     cache budget, so hit/miss counts are a deterministic function of the
//     worker's access sequence, independent of goroutine scheduling.
package storage

import (
	"errors"
	"fmt"

	"graphsys/internal/graph"
)

// Typed failures. All exported entry points return these wrapped with
// context; none panic (the repo's panicpolicy contract).
var (
	// ErrBudget reports a memory budget too small for the configured layout
	// (resident index + degrees + at least one decoded block per worker).
	ErrBudget = errors.New("storage: memory budget exceeded")
	// ErrCorrupt reports a block whose checksum or encoding failed to
	// validate on read.
	ErrCorrupt = errors.New("storage: corrupt block")
	// ErrFormat reports a file that is not a valid block-CSR file (bad
	// magic, version or header geometry).
	ErrFormat = errors.New("storage: bad file format")
)

// IOStats are the cumulative I/O meters of one source handle (or the sum
// over a provider's handles). All counters are deterministic functions of
// the handle's access sequence.
type IOStats struct {
	Hits       int64 // block requests served from the cache
	Misses     int64 // block requests that went to disk
	Evictions  int64 // cached blocks evicted to make room
	BlocksRead int64 // blocks fetched from disk (= Misses plus scan reads)
	BytesRead  int64 // compressed bytes fetched from disk
}

// Add returns s with o added counter-wise.
func (s IOStats) Add(o IOStats) IOStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BlocksRead += o.BlocksRead
	s.BytesRead += o.BytesRead
	return s
}

// Sub returns s minus o counter-wise (for per-round deltas).
func (s IOStats) Sub(o IOStats) IOStats {
	s.Hits -= o.Hits
	s.Misses -= o.Misses
	s.Evictions -= o.Evictions
	s.BlocksRead -= o.BlocksRead
	s.BytesRead -= o.BytesRead
	return s
}

// HitRatio returns Hits / (Hits + Misses), or 0 when no block was requested.
func (s IOStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// GraphSource is one worker's handle onto a graph's adjacency. Exactly one
// goroutine may use a handle at a time; distinct handles of one Provider are
// fully independent.
type GraphSource interface {
	// NumVertices returns the number of vertices.
	NumVertices() int
	// NumArcs returns the number of stored directed arcs.
	NumArcs() int64
	// Directed reports whether the stored graph is directed (undirected
	// graphs store both arc directions, as the in-memory CSR does).
	Directed() bool
	// Degree returns the out-degree of v from resident state (no disk I/O).
	Degree(v graph.V) int
	// Neighbors returns the sorted neighbor list of v. The returned slice is
	// a view into source-owned storage (for disk-backed sources, a per-handle
	// buffer that v's list alone was decoded into) and is valid until the
	// next Neighbors or Scan call on the same handle; copy it to retain. A
	// corrupt block or list returns a wrapped ErrCorrupt.
	Neighbors(v graph.V) ([]graph.V, error)
	// Scan streams every vertex's adjacency in ascending vertex order — the
	// sequential block scan of semi-external algorithms (graphd's
	// per-iteration pass). Disk-backed sources stream blocks through a
	// private buffer WITHOUT populating the cache (a full scan would flood
	// it), metering the bytes read. The adj slice passed to fn is valid only
	// during the call.
	Scan(fn func(u graph.V, adj []graph.V) error) error
	// Stats returns the handle's cumulative I/O counters (all zero for
	// in-memory sources).
	Stats() IOStats
}

// Provider hands out per-worker GraphSource handles over one graph, plus
// aggregate accounting for the observability layer.
type Provider interface {
	NumVertices() int
	NumArcs() int64
	// Handle returns worker w's private source handle. Handles are created
	// at provider construction; w must be in [0, workers).
	Handle(w int) GraphSource
	// Stats returns the sum of all handles' I/O counters.
	Stats() IOStats
	// Footprint describes the provider's memory/disk accounting.
	Footprint() Footprint
	// Close releases file handles. In-memory providers are no-ops.
	Close() error
}

// Footprint is a provider's storage accounting, attached to the obs trace.
type Footprint struct {
	Kind          string // "mem" | "disk"
	FileBytes     int64  // on-disk compressed size (0 for in-memory)
	ResidentBytes int64  // bytes held in memory outside the cache (CSR for mem; degrees+index for disk)
	CacheBytes    int64  // total block-cache budget across handles, charged at decoded size (0 for mem)
}

func errBudget(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBudget, fmt.Sprintf(format, args...))
}

func errCorrupt(format string, args ...any) error {
	//lint:allow hotalloc corruption error path: reachable from Neighbors but only taken when the file is already bad
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func errFormat(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}
