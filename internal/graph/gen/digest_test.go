package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/partition"
)

// csrDigest is the FNV-64a of g's CSR offsets (as int64, one per vertex and
// one past the end) followed by its adjacency (as int32), little-endian.
func csrDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	var off int64
	for v := graph.V(0); ; v++ {
		binary.LittleEndian.PutUint64(b[:], uint64(off))
		h.Write(b[:])
		if int(v) == g.NumVertices() {
			break
		}
		off += int64(g.Degree(v))
	}
	for v := graph.V(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			binary.LittleEndian.PutUint32(b[:4], uint32(u))
			h.Write(b[:4])
		}
	}
	return h.Sum64()
}

// TestGeneratorDigestsPinned pins the CSR of three generators bit for bit,
// and the two-way Metis assignment of the last one, whose coarsening builds
// a fresh graph per level. The values were recorded while graph.Builder
// still comparison-sorted every arc, so any faster Build must reproduce
// them exactly.
func TestGeneratorDigestsPinned(t *testing.T) {
	pp := PlantedPartitionSparse(4096, 8, 10, 1, 7).Graph
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"RMAT(12,8,7)", RMAT(12, 8, 7), 0xb905fdd7ffcbeb15},
		{"BarabasiAlbert(600,6,7)", BarabasiAlbert(600, 6, 7), 0x4e8996001a41f13d},
		{"PlantedPartitionSparse(4096,8,10,1,7)", pp, 0x7649510ca296a3b4},
	} {
		if got := csrDigest(c.g); got != c.want {
			t.Errorf("%s: CSR digest %#x, want %#x", c.name, got, c.want)
		}
	}
	h := fnv.New64a()
	for _, p := range partition.Metis(pp, 2).Assign {
		h.Write([]byte{byte(p)})
	}
	if got, want := h.Sum64(), uint64(0x3dc9f8ed707b6492); got != want {
		t.Errorf("Metis(PlantedPartitionSparse, 2): assignment digest %#x, want %#x", got, want)
	}
}
