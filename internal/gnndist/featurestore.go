// Package gnndist implements the distributed GNN training techniques of the
// paper's Table 2 on the metered cluster runtime, one mechanism per column:
// graph partitioning for feature locality (DistDGL/DGCL vs ByteGNN/BGL vs
// P³), hot-vertex feature caching (BGL/AliGraph), operator pipelining
// (ByteGNN/BGL/Dorylus), asynchronous training with bounded staleness
// (Dorylus/P³) and staleness-aware skipping (Sancus), quantised message
// compression with error compensation (EC-Graph/EXACT/F²CGT/Sylvie),
// push-pull intra-layer model parallelism (P³), delayed-update full-graph
// training on a METIS edge-cut (DistGNN), and CPU-offloaded full-graph training
// (HongTu). Every mechanism is a runnable implementation whose communication
// is accounted by cluster.Network, so the Table-2 benchmarks report measured
// bytes/rounds/accuracy rather than estimates.
package gnndist

import (
	"sort"

	"graphsys/internal/cluster"
	"graphsys/internal/graph"
	"graphsys/internal/partition"
	"graphsys/internal/tensor"
)

// FeatureStore serves vertex feature rows from a partitioned store. Fetches
// of remote rows are metered on the network; an optional static hot-vertex
// cache (BGL's feature cache) absorbs repeated fetches of high-degree
// vertices.
type FeatureStore struct {
	X     *tensor.Matrix
	Part  *partition.Partition
	net   *cluster.Network
	cache []map[graph.V]bool // per worker: cached vertex ids (nil = no cache)

	// FeatureBits, when in [2,16], quantises feature rows on the wire with a
	// per-row scale (F²CGT's feature compression): remote fetches cost
	// cols·bits/8 + 4 bytes and the receiver sees the dequantised values.
	// 0 or 32 means uncompressed fp32.
	FeatureBits int

	// remoteRows is Fetch's per-owner batching scratch (rows pending
	// accounting for the in-progress call), reused across calls.
	remoteRows []int64

	Hits, Misses, Local int64
}

// NewFeatureStore creates a store over features x partitioned by part.
func NewFeatureStore(x *tensor.Matrix, part *partition.Partition, net *cluster.Network) *FeatureStore {
	return &FeatureStore{X: x, Part: part, net: net}
}

// EnableCache installs on every worker a static cache of the cacheSize
// highest-degree vertices (BGL caches the hot vertices that dominate
// sampled neighborhoods in power-law graphs).
func (fs *FeatureStore) EnableCache(g *graph.Graph, cacheSize, workers int) {
	type dv struct {
		v graph.V
		d int
	}
	all := make([]dv, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		all[v] = dv{graph.V(v), g.Degree(graph.V(v))}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d > all[j].d })
	if cacheSize > len(all) {
		cacheSize = len(all)
	}
	fs.cache = make([]map[graph.V]bool, workers)
	for w := 0; w < workers; w++ {
		fs.cache[w] = make(map[graph.V]bool, cacheSize)
		for _, e := range all[:cacheSize] {
			fs.cache[w][e.v] = true
		}
	}
}

// RowBytes is the wire size of one feature row under the current
// compression setting.
func (fs *FeatureStore) RowBytes() int64 {
	if fs.FeatureBits >= 2 && fs.FeatureBits <= 16 {
		return int64(fs.X.Cols)*int64(fs.FeatureBits)/8 + 4 // + per-row scale
	}
	return int64(fs.X.Cols) * 4
}

// Fetch returns the feature rows for vids as seen from worker w, metering
// remote fetches (cache hits and locally-owned rows are free). With
// FeatureBits set, REMOTE rows arrive quantise-dequantised; local and cached
// rows are exact (they never cross the wire).
//
// Remote rows are accounted as one batched transfer per owner (DistDGL's
// block feature fetch) instead of one Network.Account per row, so a large
// sampled batch costs one lock acquisition per contacted partition.
func (fs *FeatureStore) Fetch(w int, vids []graph.V) *tensor.Matrix {
	out := tensor.New(len(vids), fs.X.Cols)
	compress := fs.FeatureBits >= 2 && fs.FeatureBits <= 16
	if fs.remoteRows == nil || len(fs.remoteRows) != fs.net.NumWorkers() {
		fs.remoteRows = make([]int64, fs.net.NumWorkers())
	}
	for i, v := range vids {
		owner := fs.Part.Assign[v]
		remote := false
		switch {
		case owner == w:
			fs.Local++
		case fs.cache != nil && fs.cache[w][v]:
			fs.Hits++
		default:
			fs.Misses++
			remote = true
			fs.remoteRows[owner]++
		}
		copy(out.Row(i), fs.X.Row(int(v)))
		if compress && remote {
			quantizeRow(out.Row(i), out.Row(i), fs.FeatureBits)
		}
	}
	rb := fs.RowBytes()
	for owner, rows := range fs.remoteRows {
		if rows > 0 {
			fs.net.AccountBatch(owner, w, rows, rows*rb)
			fs.remoteRows[owner] = 0
		}
	}
	return out
}

// RemoteFraction returns the fraction of fetches that crossed the network.
func (fs *FeatureStore) RemoteFraction() float64 {
	total := fs.Hits + fs.Misses + fs.Local
	if total == 0 {
		return 0
	}
	return float64(fs.Misses) / float64(total)
}
