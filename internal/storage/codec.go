package storage

import (
	"encoding/binary"
	"fmt"

	"graphsys/internal/graph"
)

// The adjacency codec: a vertex's sorted, strictly increasing neighbor list
// is stored as the first id as a uvarint, then (gap−1) uvarints for each
// subsequent id (gap ≥ 1 because the list is strictly increasing — the −1
// keeps the common gap-of-one at a single zero byte). Degrees are NOT stored
// in the block: they live in the file's resident degree table, so the
// decoder always knows how many ids to read.

// appendAdj gap-encodes adj onto dst and returns the extended slice. adj
// must be strictly increasing; a violation is reported as an error so a
// caller bug cannot silently write an undecodable file.
func appendAdj(dst []byte, adj []graph.V) ([]byte, error) {
	if len(adj) == 0 {
		return dst, nil
	}
	if adj[0] < 0 {
		return dst, errFormat("negative neighbor id %d", adj[0])
	}
	dst = binary.AppendUvarint(dst, uint64(adj[0]))
	prev := adj[0]
	for _, v := range adj[1:] {
		if v <= prev {
			return dst, errFormat("neighbor list not strictly increasing (%d after %d)", v, prev)
		}
		dst = binary.AppendUvarint(dst, uint64(v-prev-1))
		prev = v
	}
	return dst, nil
}

// The block and list failures. They are built once, so a decode path
// returns one without allocating; File.corrupt adds the file, block and
// vertex.
var (
	errTruncated  = fmt.Errorf("%w: truncated list or malformed varint", ErrCorrupt)
	errOutOfRange = fmt.Errorf("%w: neighbor id out of range", ErrCorrupt)
	errArcCount   = fmt.Errorf("%w: degrees disagree with the block's arc count", ErrCorrupt)
	errTrailing   = fmt.Errorf("%w: trailing bytes after the last list", ErrCorrupt)
)

// decodeAdj reads deg gap-encoded ids from data into out (which must have
// length deg), validating ids stay in [0, n). It returns the remaining data.
// Gaps of one and two bytes, the common case in a sorted list, take an
// inline fast path; longer ones go through binary.Uvarint.
func decodeAdj(out []graph.V, data []byte, deg int, n int) ([]byte, error) {
	if deg == 0 {
		return data, nil
	}
	out = out[:deg]
	first, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errTruncated
	}
	if first >= uint64(n) {
		return nil, errOutOfRange
	}
	out[0] = graph.V(first)
	prev, p := first, k
	for i := 1; i < len(out); i++ {
		var gap uint64
		if p < len(data) && data[p] < 0x80 {
			gap = uint64(data[p])
			p++
		} else if p+1 < len(data) && data[p+1] < 0x80 {
			gap = uint64(data[p]&0x7f) | uint64(data[p+1])<<7
			p += 2
		} else {
			gap, k = binary.Uvarint(data[p:])
			if k <= 0 {
				return nil, errTruncated
			}
			p += k
			if gap >= uint64(n) { // also guards the prev += gap+1 below against wraparound
				return nil, errOutOfRange
			}
		}
		prev += gap + 1 // a one- or two-byte gap is below 2^14: prev < n keeps this from wrapping
		if prev >= uint64(n) {
			return nil, errOutOfRange
		}
		out[i] = graph.V(prev)
	}
	return data[p:], nil
}
