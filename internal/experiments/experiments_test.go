package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"graphsys/internal/hypo"
)

// slow experiments are skipped under -short.
var slow = map[string]bool{
	"tab1-model": true, // BFS materialisation run takes seconds by design
	"tab1-order": true, // the naive matching order is deliberately slow
	"fig1":       true,
}

// renderings holds one sync.OnceValue per registered experiment: every test
// in this package reads the same table, so each experiment's Run executes at
// most once per test process, whatever order the tests run in. The map is
// built on first use because the registry fills in during package init.
var renderings = sync.OnceValue(func() map[string]func() *Table {
	m := map[string]func() *Table{}
	for _, e := range All() {
		m[e.ID] = sync.OnceValue(e.Run)
	}
	return m
})

// rendering returns experiment id's cached table, skipping t when the
// experiment is slow and the run is -short.
func rendering(t *testing.T, id string) *Table {
	t.Helper()
	if testing.Short() && slow[id] {
		t.Skip("slow experiment skipped in -short mode")
	}
	return renderings()[id]()
}

func render(t *Table) string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// goldenSections splits results.txt into its per-experiment sections, in file
// order. A section runs from its "== id: title ==" header through the blank
// line that ends it, exactly as Table.Fprint renders it.
func goldenSections(t *testing.T) (ids []string, sections map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../results.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections = map[string]string{}
	for text := string(data); text != ""; {
		sec := text
		if end := strings.Index(text, "\n\n== "); end >= 0 {
			sec, text = text[:end+2], text[end+2:]
		} else {
			text = ""
		}
		header, _, _ := strings.Cut(sec, "\n")
		id, _, ok := strings.Cut(strings.TrimPrefix(header, "== "), ":")
		if !strings.HasPrefix(header, "== ") || !ok {
			t.Fatalf("results.txt: %q is not an \"== id: title ==\" section header", header)
		}
		if _, dup := sections[id]; dup {
			t.Fatalf("results.txt has two %s sections", id)
		}
		ids = append(ids, id)
		sections[id] = sec
	}
	return ids, sections
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(got, want string) string {
	lg, lw := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(lg) && i < len(lw); i++ {
		if lg[i] != lw[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, strings.TrimSpace(lg[i]), strings.TrimSpace(lw[i]))
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(lg), len(lw))
}

// TestResultsGolden is the package's core contract (DESIGN.md §3.10): every
// experiment renders exactly its committed section of results.txt, and every
// section belongs to a registered experiment. The file was rendered by
// another process, so this also checks determinism across processes. A diff
// means wall-clock leakage, map-iteration order, scheduling-dependent
// accounting or an unseeded draw crept into a column — always a bug, never
// noise — or an output moved on purpose and results.txt was not regenerated
// (go run ./cmd/graphbench all > results.txt).
func TestResultsGolden(t *testing.T) {
	ids, sections := goldenSections(t)
	registered := map[string]bool{}
	for _, e := range All() {
		registered[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			want, ok := sections[e.ID]
			if !ok {
				t.Fatalf("results.txt has no %s section", e.ID)
			}
			if got := render(rendering(t, e.ID)); got != want {
				t.Errorf("%s differs from results.txt: %s", e.ID, firstDiff(got, want))
			}
		})
	}
	for _, id := range ids {
		if !registered[id] {
			t.Errorf("results.txt section %q has no registered experiment", id)
		}
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			table := rendering(t, e.ID)
			if table == nil {
				t.Fatal("nil table")
			}
			if table.ID != e.ID {
				t.Fatalf("table id %q != experiment id %q", table.ID, e.ID)
			}
			if len(table.Header) == 0 || len(table.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, r := range table.Rows {
				if len(r) != len(table.Header) {
					t.Fatalf("row %d has %d cells, header has %d", i, len(r), len(table.Header))
				}
			}
			if !strings.Contains(render(table), e.ID) {
				t.Fatal("rendered output missing experiment id")
			}
		})
	}
}

// TestExperimentClaims runs every registered hypothesis set on its
// experiment's cached rendering; a red claim means a table's stated
// conclusion no longer holds.
func TestExperimentClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("Type-2 claims re-run seeded workloads; skipped in -short mode")
	}
	for _, e := range All() {
		if e.Claims == nil {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			rep := hypo.Run(e.ID, e.Claims(rendering(t, e.ID)))
			if !rep.Pass() {
				var sb strings.Builder
				rep.Fprint(&sb)
				t.Fatalf("claims failed:\n%s", sb.String())
			}
		})
	}
}

func TestRegistryLookups(t *testing.T) {
	if len(All()) < 25 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
	if _, ok := ByID("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := ByID("no-such-experiment"); ok {
		t.Fatal("phantom experiment found")
	}
	// ids are unique
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow("1", 2.5)
	tb.AddRow(int64(3), "four")
	tb.Note("hello %d", 7)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"a", "bb", "2.500", "four", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
