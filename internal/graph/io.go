package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line,
// '#'-prefixed comment lines skipped) and returns an undirected graph.
// Vertex ids may be sparse; they are compacted to [0, n) preserving numeric
// order of first appearance rank.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ids := make(map[int64]V)
	var us, vs []V
	intern := func(x int64) V {
		if id, ok := ids[x]; ok {
			return id
		}
		id := V(len(ids))
		ids[x] = id
		return id
	}
	line := 0
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "%") {
			continue
		}
		fields := strings.Fields(t)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected at least 2 fields, got %q", line, t)
		}
		a, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		b, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		us = append(us, intern(a))
		vs = append(vs, intern(b))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	bld := NewBuilder(len(ids), false)
	for i := range us {
		bld.AddEdge(us[i], vs[i])
	}
	return bld.Build(), nil
}

// WriteEdgeList writes g as a text edge list (one edge per line, each
// undirected edge once).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# graphsys edge list: n=%d m=%d directed=%v\n", g.NumVertices(), g.NumEdges(), g.Directed())
	var err error
	g.EdgesOnce(func(u, v V) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
