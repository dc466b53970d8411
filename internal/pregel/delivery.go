package pregel

import (
	"graphsys/internal/graph"
)

// delivery is the engine's columnar inbox (DESIGN.md §3.12). Each worker's
// round of inbound messages is scattered — by a stable counting sort on the
// destination-local vertex id, slot / K, read off each message's slot with
// no lookup — into one flat per-worker payload buffer, and
// msgs[v] becomes a view into that buffer instead of an owned per-vertex
// slice. The demux loop therefore touches only the owner worker's own flat
// buffer, count table and touched list (no cross-worker active[] stores,
// no per-vertex append growth), and every buffer is reused across rounds, so
// a steady-state demux performs no allocation.
type delivery[M any] struct {
	owned [][]graph.V
	keys  int32 // K: slots per vertex; a message to slot s is for owned[s/K]

	// per worker, reused every round
	flat    [][]M     // round payloads in scatter order; msgs[v] are views
	counts  [][]int32 // per local id: messages this round; all-zero between rounds
	cursor  [][]int32 // scatter cursors (start offsets during the scatter pass)
	touched [][]int32 // local ids that received ≥1 message, discovery order
}

func newDelivery[M any](owned [][]graph.V, keys int) *delivery[M] {
	n := len(owned)
	d := &delivery[M]{
		owned:   owned,
		keys:    int32(keys),
		flat:    make([][]M, n),
		counts:  make([][]int32, n),
		cursor:  make([][]int32, n),
		touched: make([][]int32, n),
	}
	for w := range owned {
		d.counts[w] = make([]int32, len(owned[w]))
		d.cursor[w] = make([]int32, len(owned[w]))
		d.touched[w] = make([]int32, 0, len(owned[w]))
	}
	return d
}

// scatter groups worker w's inbound stream — payloads and, index for index,
// their slots — by destination vertex into the worker's flat buffer,
// installs msgs[v] views and activates recipients. Only entries owned by w
// are touched, so concurrent per-worker scatters are race-free. Returns the
// number of vertices newly activated.
func (d *delivery[M]) scatter(w int, stream []M, slots []int32, msgs [][]M, active []bool) int64 {
	if len(stream) == 0 {
		return 0
	}
	counts, cursor, touched := d.counts[w], d.cursor[w], d.touched[w]
	k := d.keys
	for _, s := range slots {
		lid := s / k
		if counts[lid] == 0 {
			n := len(touched)
			touched = touched[:n+1] // within capacity: one entry per owned vertex
			touched[n] = lid
		}
		counts[lid]++
	}
	flat := d.flat[w]
	// zero before reuse so pointer-bearing M from last round does not stay
	// reachable through the retained backing array
	clear(flat)
	if cap(flat) < len(stream) {
		//lint:allow hotalloc warm-up growth only: the flat buffer reaches the round's inbound high-water mark once, then is reused
		flat = make([]M, len(stream))
	} else {
		flat = flat[:len(stream)]
	}
	off := int32(0)
	for _, lid := range touched {
		cursor[lid] = off
		off += counts[lid]
	}
	for i, s := range slots {
		lid := s / k
		flat[cursor[lid]] = stream[i]
		cursor[lid]++
	}
	var activated int64
	owned := d.owned[w]
	for _, lid := range touched {
		end := cursor[lid]
		v := owned[lid]
		msgs[v] = flat[end-counts[lid] : end : end]
		if !active[v] {
			active[v] = true
			activated++
		}
		counts[lid] = 0 // restore the all-zero between-rounds invariant
	}
	d.flat[w] = flat
	d.touched[w] = touched[:0]
	return activated
}
