package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
0 1
1 2
2 0

10 11
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("n=%d want 5 (compacted)", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("m=%d want 4", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("want error for short line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("want error for non-numeric")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := completeGraph(6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
}

// TestWriteTransactions pins WriteTransactions' gSpan text: a header and a
// class line per transaction, then every vertex label and every undirected
// edge once with its label.
func TestWriteTransactions(t *testing.T) {
	db := &TransactionDB{}
	b := NewBuilder(3, false)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 1)
	b.AddLabeledEdge(0, 1, 5)
	b.AddLabeledEdge(1, 2, 6)
	db.Add(b.Build(), 1)

	b2 := NewBuilder(2, false)
	b2.SetLabel(0, 3)
	b2.SetLabel(1, 3)
	b2.AddLabeledEdge(0, 1, 7)
	db.Add(b2.Build(), 0)

	var buf bytes.Buffer
	if err := WriteTransactions(&buf, db); err != nil {
		t.Fatal(err)
	}
	want := `t # 0
c 1
v 0 1
v 1 2
v 2 1
e 0 1 5
e 1 2 6
t # 1
c 0
v 0 3
v 1 3
e 0 1 7
`
	if got := buf.String(); got != want {
		t.Fatalf("WriteTransactions wrote\n%s\nwant\n%s", got, want)
	}
}
