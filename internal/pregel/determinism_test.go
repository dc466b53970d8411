package pregel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"graphsys/internal/graph/gen"
)

// TestPageRankBitwiseDeterministicAcrossRuns: on the staged substrate,
// message delivery order is a deterministic function of the workload (sender
// rank, then send order), so even float-summing programs like PageRank are
// bitwise reproducible run-to-run at every worker count. Before the staged
// substrate this did not hold: combined messages were flushed in Go map
// iteration order, so inbox order — and therefore float accumulation order —
// varied between runs.
func TestPageRankBitwiseDeterministicAcrossRuns(t *testing.T) {
	g := gen.RMAT(10, 8, 3)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			a, ra, err := PageRank(g, 12, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			b, rb, err := PageRank(g, 12, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("rank[%d] differs between identical runs: %v vs %v", v, a[v], b[v])
				}
			}
			if ra.Net != rb.Net {
				t.Fatalf("network stats differ between identical runs:\n%+v\n%+v", ra.Net, rb.Net)
			}
		})
	}
}

// TestHashMinCCExactAcrossWorkerCounts: order-insensitive programs must give
// identical answers at any worker count on the staged substrate.
func TestHashMinCCExactAcrossWorkerCounts(t *testing.T) {
	g := gen.BarabasiAlbert(400, 2, 11)
	base, _, err := HashMinCC(g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		labels, _, err := HashMinCC(g, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for v := range labels {
			if labels[v] != base[v] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", workers, v, labels[v], base[v])
			}
		}
	}
}

// TestPageRankBitsPinned pins PageRank's rank bits and network counters on
// RMAT(14,16,7) at workers 1–4 to values recorded before message addressing
// changed from vertex ids to destination slots. The digest is FNV-64a over
// the little-endian Float64bits of the ranks, the benchmark's rank digest, so
// it holds the float fold order of every combined class, not only the sums.
func TestPageRankBitsPinned(t *testing.T) {
	g := gen.RMAT(14, 16, 7)
	want := []struct {
		digest          uint64
		messages, bytes int64
	}{
		{0x1c0aa8effab440de, 0, 0},
		{0xdb0a9f16e9d5acd9, 85704, 685632},
		{0xac70041ebc76e0be, 159088, 1272704},
		{0xc1db4df69065904f, 201192, 1609536},
	}
	for i, w := range want {
		workers := i + 1
		ranks, res, err := PageRank(g, 8, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, r := range ranks {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != w.digest || res.Net.Messages != w.messages || res.Net.Bytes != w.bytes {
			t.Errorf("workers=%d: digest %#x, %d messages, %d bytes; want %#x, %d, %d",
				workers, got, res.Net.Messages, res.Net.Bytes, w.digest, w.messages, w.bytes)
		}
	}
}
