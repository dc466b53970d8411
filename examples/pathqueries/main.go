// Pathqueries: the TLAV-family systems of the paper's presenters working
// together — Quegel-style batched point-to-point distance queries, Blogel
// block-centric connected components, and GraphD semi-external processing
// when the edge list must live on disk.
//
//	go run ./examples/pathqueries
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"graphsys/internal/blogel"
	"graphsys/internal/graph"
	"graphsys/internal/graphd"
	"graphsys/internal/partition"
	"graphsys/internal/pregel"
	"graphsys/internal/quegel"
	"graphsys/internal/storage"
)

func main() {
	log.SetFlags(0)
	// a road-network-like graph: mostly grid with a few shortcuts
	g := buildRoadNetwork(40, 40, 60, 7)
	fmt.Printf("road network: %v\n\n", g)

	// --- Quegel: batched distance queries ---
	rng := rand.New(rand.NewSource(1))
	var queries []quegel.Query
	for i := 0; i < 10; i++ {
		queries = append(queries, quegel.Query{
			Src: graph.V(rng.Intn(g.NumVertices())),
			Dst: graph.V(rng.Intn(g.NumVertices())),
		})
	}
	batched, bst, err := quegel.AnswerBatched(g, queries, pregel.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	_, sst, err := quegel.AnswerSequential(g, queries, pregel.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Quegel: 10 point-to-point distance queries ==")
	for i, q := range queries[:4] {
		fmt.Printf("  dist(%4d → %4d) = %d hops\n", q.Src, q.Dst, batched[i].Dist)
	}
	fmt.Printf("  batched: %d barrier rounds; sequential: %d (superstep sharing: %.0fx fewer)\n\n",
		bst.Supersteps, sst.Supersteps, float64(sst.Supersteps)/float64(bst.Supersteps))

	// --- Blogel: block-centric CC on the high-diameter network ---
	_, vres, err := pregel.HashMinCC(g, pregel.Config{Workers: 4, MaxSupersteps: 100000})
	if err != nil {
		log.Fatal(err)
	}
	blocks, err := blogel.BuildSource(storage.InMemory(g).Handle(0), partition.Metis(g, 16))
	if err != nil {
		log.Fatal(err)
	}
	bres, err := blocks.ConnectedComponents(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Blogel: connected components on a high-diameter network ==")
	fmt.Printf("  vertex-centric: %d rounds, %d messages\n", vres.Supersteps, vres.Net.Messages+vres.Net.LocalMessages)
	fmt.Printf("  block-centric:  %d rounds, %d messages (%d blocks)\n\n",
		bres.Supersteps, bres.Messages, blocks.NumBlock)

	// --- GraphD: process the same graph with edges on disk ---
	dir, err := os.MkdirTemp("", "graphd")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bf, err := graphd.SpillBlocks(g, filepath.Join(dir, "g.gsb"), storage.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer bf.Close()
	labels, st, err := bf.ConnectedComponents()
	if err != nil {
		log.Fatal(err)
	}
	comps := map[int32]bool{}
	for _, l := range labels {
		comps[l] = true
	}
	fmt.Println("== GraphD: semi-external processing (compressed blocks streamed from disk) ==")
	fmt.Printf("  block file: %d bytes on disk; resident state: %d bytes\n", bf.FileBytes(), st.ResidentBytes)
	fmt.Printf("  %d components found in %d streaming passes (%d bytes read)\n",
		len(comps), st.Passes, st.BytesRead)
}

// buildRoadNetwork makes a rows×cols grid plus a few random shortcut edges.
func buildRoadNetwork(rows, cols, shortcuts int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	b := graph.NewBuilder(n, false)
	id := func(r, c int) graph.V { return graph.V(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	for i := 0; i < shortcuts; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.Build()
}
