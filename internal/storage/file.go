package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sort"

	"graphsys/internal/graph"
)

// On-disk layout (all integers little-endian):
//
//	header   40 bytes: magic, version, flags, blockTarget (u32 each),
//	         n, arcs (u64 each), numBlocks, maxDecoded (u32 each)
//	index    numBlocks × 24 bytes: first, count, arcCount, encLen (u32), off (u64)
//	degrees  n × u32
//	blocks   per block: encLen payload bytes, then a CRC32 (IEEE) of the payload
//
// The header, index and degree table are the RESIDENT part — O(|V|) memory —
// loaded once at Open. Blocks are fetched on demand (the cache) or streamed
// (Scan). maxDecoded is the largest decoded footprint of any single block,
// the unit the budget check is expressed in.

const (
	fileMagic   = 0x31425347 // "GSB1"
	fileVersion = 1

	flagDirected = 1 << 0

	headerBytes     = 40
	indexEntryBytes = 24
	crcBytes        = 4

	// DefaultBlockBytes is the default target encoded size of one block.
	DefaultBlockBytes = 64 << 10
)

// BlockMeta is one index entry: a block covering vertices
// [First, First+Count) whose payload is EncLen bytes at file offset Off.
type BlockMeta struct {
	First    graph.V
	Count    int32
	ArcCount int32
	EncLen   int32
	Off      int64
}

// decodedBytes is the footprint of the decoded block — the local offset
// table (Count+1 int32s) plus the neighbor ids — and what a cached block is
// charged against the budget, although the cache holds it encoded.
func (m BlockMeta) decodedBytes() int64 {
	return int64(m.Count+1)*4 + int64(m.ArcCount)*4
}

// File is an opened block-CSR file: resident header, index and degree table,
// with block payloads read on demand through ReadAt (safe for concurrent
// use by multiple handles).
type File struct {
	f    *os.File
	path string

	n          int
	arcs       int64
	directed   bool
	blockBytes int
	maxDecoded int64
	fileBytes  int64

	idx  []BlockMeta
	degs []int32
}

// Open maps a block-CSR file: it reads and validates the header, index and
// degree table (the resident part) and leaves blocks on disk.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, errFormat("%s: reading header: %v", path, err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:4]) != fileMagic {
		f.Close()
		return nil, errFormat("%s: bad magic", path)
	}
	if v := le.Uint32(hdr[4:8]); v != fileVersion {
		f.Close()
		return nil, errFormat("%s: unsupported version %d", path, v)
	}
	bf := &File{
		f:          f,
		path:       path,
		directed:   le.Uint32(hdr[8:12])&flagDirected != 0,
		blockBytes: int(le.Uint32(hdr[12:16])),
		n:          int(le.Uint64(hdr[16:24])),
		arcs:       int64(le.Uint64(hdr[24:32])),
		maxDecoded: int64(le.Uint32(hdr[36:40])),
		fileBytes:  fi.Size(),
	}
	numBlocks := int(le.Uint32(hdr[32:36]))
	if bf.n < 0 || numBlocks < 0 {
		f.Close()
		return nil, errFormat("%s: negative geometry", path)
	}
	raw := make([]byte, numBlocks*indexEntryBytes)
	if _, err := io.ReadFull(f, raw); err != nil {
		f.Close()
		return nil, errFormat("%s: reading index: %v", path, err)
	}
	bf.idx = make([]BlockMeta, numBlocks)
	for b := range bf.idx {
		e := raw[b*indexEntryBytes:]
		bf.idx[b] = BlockMeta{
			First:    graph.V(le.Uint32(e[0:4])),
			Count:    int32(le.Uint32(e[4:8])),
			ArcCount: int32(le.Uint32(e[8:12])),
			EncLen:   int32(le.Uint32(e[12:16])),
			Off:      int64(le.Uint64(e[16:24])),
		}
	}
	draw := make([]byte, bf.n*4)
	if _, err := io.ReadFull(f, draw); err != nil {
		f.Close()
		return nil, errFormat("%s: reading degree table: %v", path, err)
	}
	bf.degs = make([]int32, bf.n)
	for v := range bf.degs {
		bf.degs[v] = int32(le.Uint32(draw[v*4:]))
	}
	if err := bf.validate(); err != nil {
		f.Close()
		return nil, err
	}
	return bf, nil
}

// validate cross-checks index geometry against the header so a truncated or
// inconsistent file fails at Open, not mid-run.
func (bf *File) validate() error {
	var arcs int64
	next := graph.V(0)
	for b, m := range bf.idx {
		if m.First != next || m.Count < 0 || m.ArcCount < 0 || m.EncLen < 0 {
			return errFormat("%s: block %d covers [%d,+%d), want start %d", bf.path, b, m.First, m.Count, next)
		}
		if m.Off < 0 || m.Off+int64(m.EncLen)+crcBytes > bf.fileBytes {
			return errFormat("%s: block %d extends past end of file", bf.path, b)
		}
		if m.decodedBytes() > bf.maxDecoded {
			return errFormat("%s: block %d decoded size %d exceeds header max %d", bf.path, b, m.decodedBytes(), bf.maxDecoded)
		}
		next = m.First + graph.V(m.Count)
		arcs += int64(m.ArcCount)
	}
	if int(next) != bf.n {
		return errFormat("%s: blocks cover %d of %d vertices", bf.path, next, bf.n)
	}
	if arcs != bf.arcs {
		return errFormat("%s: blocks hold %d arcs, header says %d", bf.path, arcs, bf.arcs)
	}
	var degSum int64
	for _, d := range bf.degs {
		if d < 0 {
			return errFormat("%s: negative degree", bf.path)
		}
		degSum += int64(d)
	}
	if degSum != bf.arcs {
		return errFormat("%s: degree table sums to %d arcs, header says %d", bf.path, degSum, bf.arcs)
	}
	return nil
}

// Close releases the underlying file handle.
func (bf *File) Close() error { return bf.f.Close() }

// NumVertices returns the number of vertices.
func (bf *File) NumVertices() int { return bf.n }

// NumArcs returns the number of stored directed arcs.
func (bf *File) NumArcs() int64 { return bf.arcs }

// Directed reports whether the graph is directed.
func (bf *File) Directed() bool { return bf.directed }

// NumBlocks returns the number of edge blocks.
func (bf *File) NumBlocks() int { return len(bf.idx) }

// FileBytes returns the total on-disk size.
func (bf *File) FileBytes() int64 { return bf.fileBytes }

// MaxDecodedBytes returns the decoded footprint of the largest block — the
// minimum cache budget one handle needs.
func (bf *File) MaxDecodedBytes() int64 { return bf.maxDecoded }

// ResidentBytes returns the memory held by the resident part: degree table
// plus block index.
func (bf *File) ResidentBytes() int64 {
	return int64(bf.n)*4 + int64(len(bf.idx))*indexEntryBytes
}

// RawCSRBytes returns the in-memory CSR footprint the file replaces
// (8-byte offsets + 4-byte neighbor ids), the numerator of the compression
// ratio.
func (bf *File) RawCSRBytes() int64 {
	return int64(bf.n+1)*8 + bf.arcs*4
}

// CompressionRatio returns RawCSRBytes / FileBytes.
func (bf *File) CompressionRatio() float64 {
	if bf.fileBytes == 0 {
		return 0
	}
	return float64(bf.RawCSRBytes()) / float64(bf.fileBytes)
}

// Degree returns the out-degree of v from the resident degree table.
func (bf *File) Degree(v graph.V) int { return int(bf.degs[v]) }

// blockOf returns the index of the block containing v.
func (bf *File) blockOf(v graph.V) int {
	//lint:allow hotalloc sort.Search does not retain its predicate; the closure stays on the stack (TestHitPathZeroAllocs pins 0 allocs/op on cache hits)
	return sort.Search(len(bf.idx), func(b int) bool {
		return bf.idx[b].First+graph.V(bf.idx[b].Count) > v
	})
}

// readBlock fetches block b's payload into raw (grown as needed), verifies
// its CRC and returns the payload slice.
func (bf *File) readBlock(b int, raw []byte) ([]byte, error) {
	m := bf.idx[b]
	need := int(m.EncLen) + crcBytes
	if cap(raw) < need {
		//lint:allow hotalloc warm-up growth only: the read buffer grows to the largest encoded block, then is reused for every read
		raw = make([]byte, need)
	} else {
		raw = raw[:need]
	}
	if _, err := bf.f.ReadAt(raw, m.Off); err != nil {
		//lint:allow hotalloc corruption error path: formatting the failure is free, the read already died
		return nil, errCorrupt("%s: block %d: %v", bf.path, b, err)
	}
	payload := raw[:m.EncLen]
	want := binary.LittleEndian.Uint32(raw[m.EncLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		//lint:allow hotalloc corruption error path: formatting the failure is free, the block is already bad
		return nil, errCorrupt("%s: block %d: checksum mismatch (got %08x want %08x)", bf.path, b, got, want)
	}
	return payload, nil
}

// indexBlock is the structure pass over block b's CRC-checked payload: it
// records in offs (Count+1 entries) the byte offset at which each vertex's
// list starts, by counting varint terminators (bytes below 0x80) against the
// resident degrees. It checks that the degrees sum to the block's ArcCount
// and that the last list ends exactly at the payload's end; the ids
// themselves are range-checked when decodeList decodes a list.
func (bf *File) indexBlock(b int, payload []byte, offs []int32) error {
	m := bf.idx[b]
	degs := bf.degs[m.First : m.First+graph.V(m.Count)]
	var arcs int64
	for _, d := range degs {
		arcs += int64(d)
	}
	if arcs != int64(m.ArcCount) {
		return bf.corrupt(b, m.First, errArcCount)
	}
	pos := 0
	for i, d := range degs {
		offs[i] = int32(pos)
		need := int(d)
		// eight bytes at a time: the terminators of a word are its clear
		// high bits
		for need > 0 && pos+8 <= len(payload) {
			t := ^binary.LittleEndian.Uint64(payload[pos:]) & 0x8080808080808080
			if c := bits.OnesCount64(t); c < need {
				need -= c
				pos += 8
				continue
			}
			for ; need > 1; need-- {
				t &= t - 1
			}
			pos += bits.TrailingZeros64(t)/8 + 1
			need = 0
		}
		for ; need > 0; need-- { // the payload's last few bytes
			for pos < len(payload) && payload[pos] >= 0x80 {
				pos++
			}
			if pos == len(payload) {
				return bf.corrupt(b, m.First+graph.V(i), errTruncated)
			}
			pos++
		}
	}
	offs[len(degs)] = int32(pos)
	if pos != len(payload) {
		return bf.corrupt(b, m.First+graph.V(max(m.Count-1, 0)), errTrailing)
	}
	return nil
}

// decodeList decodes vertex v's list out of block b's payload, using the
// list offsets indexBlock recorded in offs, into out (length Degree(v)).
func (bf *File) decodeList(b int, payload []byte, offs []int32, v graph.V, out []graph.V) error {
	i := v - bf.idx[b].First
	if _, err := decodeAdj(out, payload[offs[i]:offs[i+1]], len(out), bf.n); err != nil {
		return bf.corrupt(b, v, err)
	}
	return nil
}

// corrupt is the one place a structure or decode failure in block b, found
// at vertex v, gets its file, block and vertex attached. Failures come here
// bare (the codec's sentinels), so no path that reaches it formats anything
// until a block is already bad.
func (bf *File) corrupt(b int, v graph.V, cause error) error {
	//lint:allow hotalloc corruption error path: formatting the failure is free, the block is already bad
	return fmt.Errorf("%s: block %d vertex %d: %w", bf.path, b, v, cause)
}

// scanBuf holds the reusable buffers of a sequential block scan, so a
// per-iteration scan (graphd's passes) does not reallocate each round.
type scanBuf struct {
	raw  []byte
	offs []int32
	adj  []graph.V
}

// scanBlocks streams every block in order through buf, calling fn once per
// vertex with its decoded adjacency. It returns compressed bytes and blocks
// read. The adj slice is valid only during fn.
func (bf *File) scanBlocks(buf *scanBuf, fn func(u graph.V, adj []graph.V) error) (int64, int64, error) {
	var bytesRead, blocksRead int64
	for b := range bf.idx {
		m := bf.idx[b]
		payload, err := bf.readBlock(b, buf.raw)
		if err != nil {
			return bytesRead, blocksRead, err
		}
		buf.raw = payload[:cap(payload)]
		bytesRead += int64(m.EncLen) + crcBytes
		blocksRead++
		if int(m.Count)+1 > cap(buf.offs) {
			buf.offs = make([]int32, m.Count+1)
		}
		offs := buf.offs[:m.Count+1]
		if err := bf.indexBlock(b, payload, offs); err != nil {
			return bytesRead, blocksRead, err
		}
		for u := m.First; u < m.First+graph.V(m.Count); u++ {
			deg := int(bf.degs[u])
			if deg > cap(buf.adj) {
				buf.adj = make([]graph.V, deg)
			}
			adj := buf.adj[:deg]
			if err := bf.decodeList(b, payload, offs, u, adj); err != nil {
				return bytesRead, blocksRead, err
			}
			if err := fn(u, adj); err != nil {
				return bytesRead, blocksRead, err
			}
		}
	}
	return bytesRead, blocksRead, nil
}
