package graph_test

import (
	"fmt"

	"graphsys/internal/graph"
)

// Build sorts every row and merges parallel edges; AddEdge drops
// self-loops, and a vertex that no edge touches keeps an empty row.
func ExampleBuilder() {
	b := graph.NewBuilder(5, false)
	b.AddEdge(2, 0)
	b.AddEdge(0, 2) // the same undirected edge again
	b.AddEdge(1, 2)
	b.AddEdge(3, 3) // a self-loop
	b.AddEdge(0, 1)
	g := b.Build()
	for v := range graph.V(g.NumVertices()) {
		fmt.Println(v, g.Neighbors(v))
	}
	fmt.Println(g)
	// Output:
	// 0 [1 2]
	// 1 [0 2]
	// 2 [0 1]
	// 3 []
	// 4 []
	// graph{undirected, n=5, m=3}
}
