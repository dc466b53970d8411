// Package experiments implements one runnable experiment per table, figure
// and quantitative claim of the paper, as indexed in DESIGN.md §3. Each
// experiment returns a formatted Table so that cmd/graphbench can print the
// paper-style artifact and EXPERIMENTS.md can record paper-vs-measured
// shapes.
//
// Every table is DETERMINISTIC: every run, in any process, produces the
// bytes committed in results.txt (TestResultsGolden enforces it). Columns
// therefore report metered work — ticks, messages, candidates, bytes, cost
// units — never wall time; the metered cost model is the clock, and
// graphlint's wallclock check covers this package. Quantitative claims about
// a table are declared as typed hypotheses (hypotheses.go) over that table,
// runnable via `graphbench -check`.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"graphsys/internal/hypo"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Table
	// Claims builds the experiment's typed hypotheses over one rendering of
	// its table, t. Nil when the table is purely descriptive. Lazy so that
	// registration at init never runs engine code.
	Claims func(t *Table) []hypo.Hypothesis
}

var (
	registry []Experiment
	// claimsByID is filled by registerClaims (hypotheses.go) and joined to
	// the registry lazily in All/ByID: init functions run in file-name order,
	// so claims registration cannot assume the table registration already
	// happened (hypotheses.go sorts before table1.go).
	claimsByID = map[string]func(t *Table) []hypo.Hypothesis{}
)

func register(id, title string, run func() *Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// registerClaims attaches typed hypotheses to an experiment by id.
func registerClaims(id string, claims func(t *Table) []hypo.Hypothesis) {
	claimsByID[id] = claims
}

// All returns every registered experiment, sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	for i := range out {
		out[i].Claims = claimsByID[out[i].ID]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			e.Claims = claimsByID[e.ID]
			return e, true
		}
	}
	return Experiment{}, false
}

// must/must2/must3 unwrap engine results inside experiments: experiment
// configs are hard-coded and valid, so an error here is a programming bug
// worth a panic (cmd/graphbench recovers it into a stderr report and a
// non-zero exit instead of a half-printed table).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must2[T any](v T, err error) T {
	must(err)
	return v
}

func must3[A, B any](a A, b B, err error) (A, B) {
	must(err)
	return a, b
}
