package graph

import (
	"bufio"
	"fmt"
	"io"
)

// TransactionDB is a database of small labeled graphs ("transactions"), the
// input of transactional frequent-subgraph mining (gSpan / PrefixFPM). Each
// transaction carries an optional class label for downstream graph
// classification (e.g. molecule activity).
type TransactionDB struct {
	Graphs []*Graph
	Class  []int // optional class label per transaction; nil if absent
}

// Len returns the number of transactions.
func (db *TransactionDB) Len() int { return len(db.Graphs) }

// Add appends a transaction with a class label.
func (db *TransactionDB) Add(g *Graph, class int) {
	db.Graphs = append(db.Graphs, g)
	db.Class = append(db.Class, class)
}

// WriteTransactions writes db in gSpan transaction format.
func WriteTransactions(w io.Writer, db *TransactionDB) error {
	bw := bufio.NewWriter(w)
	for i, g := range db.Graphs {
		fmt.Fprintf(bw, "t # %d\n", i)
		if db.Class != nil {
			fmt.Fprintf(bw, "c %d\n", db.Class[i])
		}
		for v := V(0); int(v) < g.NumVertices(); v++ {
			fmt.Fprintf(bw, "v %d %d\n", v, g.Label(v))
		}
		var err error
		g.EdgesOnce(func(u, v V) {
			if err == nil {
				_, err = fmt.Fprintf(bw, "e %d %d %d\n", u, v, g.EdgeLabel(u, v))
			}
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
