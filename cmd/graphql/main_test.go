package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphsys/internal/graph"
	"graphsys/internal/graph/gen"
	"graphsys/internal/match"
	"graphsys/internal/refmodel"
)

// buildTool compiles graphql into a temp dir and returns the executable path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "graphql")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/graphql: %v\n%s", err, out)
	}
	return tool
}

var (
	resultLine = regexp.MustCompile(`\[query #(\d+) (\S+)\] (\d+) matches in \S+`)
	distLine   = regexp.MustCompile(`dist\((\d+),(\d+)\) = (-?\d+)  \((\d+) rounds\)`)
)

// TestScriptMatchesOracles pipes a script into the shell and checks every
// answer against the offline oracle over the same generated graph: subgraph
// counts against match.Count, distances against a serial BFS.
func TestScriptMatchesOracles(t *testing.T) {
	tool := buildTool(t)
	script := strings.Join([]string{
		"pattern triangle",
		"edges 0-1,1-2,2-0",
		"dist 0 5",
		"dist 17 150",
		"dist 199 0",
		"dist 3 3",
		"dist 0 200",
		"dist -1 4",
		"quit",
	}, "\n") + "\n"
	cmd := exec.Command(tool, "-gen", "er", "-n", "200", "-workers", "4")
	cmd.Stdin = strings.NewReader(script)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("graphql: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	out := stdout.String()

	// the same graph main generates for -gen er -n 200 (default seed 1)
	g := gen.ErdosRenyi(200, 800, 1)
	triangle := graph.FromEdges(3, [][2]graph.V{{0, 1}, {1, 2}, {0, 2}})
	want, _ := match.Count(g, match.OptimizedPlan(triangle), 4)

	results := resultLine.FindAllStringSubmatch(out, -1)
	names := map[string]bool{}
	for _, m := range results {
		names[m[2]] = true
		if got, _ := strconv.ParseInt(m[3], 10, 64); got != want {
			t.Errorf("%q: got %d matches, match.Count says %d", m[0], got, want)
		}
	}
	if len(results) != 2 || !names["triangle"] || !names["ad-hoc"] {
		t.Errorf("want one result line each for triangle and ad-hoc, got %q\noutput:\n%s", results, out)
	}

	dists := distLine.FindAllStringSubmatch(out, -1)
	if len(dists) != 4 {
		t.Errorf("want 4 dist answers, got %d\noutput:\n%s", len(dists), out)
	}
	for _, m := range dists {
		u, _ := strconv.Atoi(m[1])
		v, _ := strconv.Atoi(m[2])
		got, _ := strconv.Atoi(m[3])
		if want := int(refmodel.BFS(g, graph.V(u))[v]); got != want {
			t.Errorf("%q: BFS says %d", m[0], want)
		}
	}
	if n := strings.Count(out, "bad vertex ids"); n != 2 {
		t.Errorf("want 2 \"bad vertex ids\" lines, got %d\noutput:\n%s", n, out)
	}
}
