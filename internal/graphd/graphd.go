// Package graphd implements semi-external vertex-centric processing in the
// style of GraphD (Yan et al., TPDS'18), the presenters' system for
// "distributed vertex-centric graph processing beyond the memory limit":
// vertex states stay in memory (O(|V|)), but the adjacency lists live on
// disk and are STREAMED sequentially once per iteration, so graphs whose
// edge lists exceed memory can still be processed. The trade is disk I/O
// per round — which this package meters exactly — against the O(|V|+|E|)
// resident footprint of the in-memory engine.
//
// The one on-disk format is BlockFile: the shared out-of-core layer's
// compressed block-CSR (internal/storage), read by one sequential block
// scan per pass. internal/refmodel's ScanCC and ScanPageRank are its
// specification.
package graphd

import (
	"fmt"

	"graphsys/internal/graph"
	"graphsys/internal/storage"
)

// Stats reports the I/O cost of a semi-external run.
type Stats struct {
	Passes    int
	BytesRead int64
	// ResidentBytes is the in-memory footprint: the block file's degree
	// table and block index plus the per-vertex states.
	ResidentBytes int64
}

// BlockFile is the semi-external engine on the shared out-of-core storage
// layer (internal/storage): adjacency lives in compressed block-CSR on disk
// and each iteration is one sequential block scan in ascending vertex
// order. The resident degree table means no pass is spent on degrees.
type BlockFile struct {
	prov *storage.CachedProvider
	path string
}

// SpillBlocks writes g to a compressed block file at path and opens it for
// semi-external processing.
func SpillBlocks(g *graph.Graph, path string, opts storage.Options) (*BlockFile, error) {
	if _, err := storage.Write(path, g, opts); err != nil {
		return nil, fmt.Errorf("graphd: %w", err)
	}
	return OpenBlocks(path)
}

// OpenBlocks opens an existing block-CSR file for semi-external processing.
// Sequential scans stream through one private block buffer, so the cache
// budget is the minimum the storage layer accepts.
func OpenBlocks(path string) (*BlockFile, error) {
	f, err := storage.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graphd: %w", err)
	}
	budget := f.ResidentBytes() + f.MaxDecodedBytes()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("graphd: %w", err)
	}
	prov, err := storage.OpenCached(path, budget, 1, storage.LRU)
	if err != nil {
		return nil, fmt.Errorf("graphd: %w", err)
	}
	return &BlockFile{prov: prov, path: path}, nil
}

// Close releases the underlying file handle.
func (bf *BlockFile) Close() error { return bf.prov.Close() }

// Path returns the block file's path.
func (bf *BlockFile) Path() string { return bf.path }

// NumVertices returns the number of vertices.
func (bf *BlockFile) NumVertices() int { return bf.prov.NumVertices() }

// NumArcs returns the number of stored arcs.
func (bf *BlockFile) NumArcs() int64 { return bf.prov.NumArcs() }

// FileBytes returns the compressed on-disk size.
func (bf *BlockFile) FileBytes() int64 { return bf.prov.File().FileBytes() }

// stats converts the provider's cumulative I/O into graphd accounting.
func (bf *BlockFile) stats(passes int, before storage.IOStats, stateBytes int64) Stats {
	d := bf.prov.Stats().Sub(before)
	return Stats{
		Passes:        passes,
		BytesRead:     d.BytesRead,
		ResidentBytes: bf.prov.Footprint().ResidentBytes + stateBytes,
	}
}

// ConnectedComponents runs HashMin label propagation with states in memory,
// one sequential scan per pass, until a pass changes nothing. Labels are
// updated in place as the scan goes, so labels and pass count are those of
// refmodel.ScanCC.
func (bf *BlockFile) ConnectedComponents() ([]int32, Stats, error) {
	n := bf.prov.NumVertices()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	src := bf.prov.Handle(0)
	before := src.Stats()
	passes := 0
	for {
		changed := false
		err := src.Scan(func(u graph.V, adj []graph.V) error {
			lu := labels[u]
			for _, v := range adj {
				if lu < labels[v] {
					labels[v] = lu
					changed = true
				}
			}
			return nil
		})
		passes++
		if err != nil {
			return nil, bf.stats(passes, before, int64(n)*4), fmt.Errorf("graphd: %w", err)
		}
		if !changed {
			return labels, bf.stats(passes, before, int64(n)*4), nil
		}
	}
}

// PageRank keeps ranks in memory and runs one scan per iteration, summing in
// scan order, so the ranks are refmodel.ScanPageRank's bit for bit. Degrees
// come from the resident table, so a run costs exactly iters passes.
func (bf *BlockFile) PageRank(iters int) ([]float64, Stats, error) {
	const d = 0.85
	n := bf.prov.NumVertices()
	src := bf.prov.Handle(0)
	before := src.Stats()
	stateBytes := int64(n) * 8 * 2
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	passes := 0
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		err := src.Scan(func(u graph.V, adj []graph.V) error {
			if deg := len(adj); deg > 0 {
				share := ranks[u] / float64(deg)
				for _, v := range adj {
					next[v] += share
				}
			}
			return nil
		})
		passes++
		if err != nil {
			return nil, bf.stats(passes, before, stateBytes), fmt.Errorf("graphd: %w", err)
		}
		for v := range next {
			next[v] = (1-d)/float64(n) + d*next[v]
		}
		ranks = next
	}
	return ranks, bf.stats(passes, before, stateBytes), nil
}
