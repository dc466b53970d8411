package hypo

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// WriteDir persists the report into a per-run folder (created if missing):
//
//	dir/results.json — the full Report, machine-readable
//	dir/results.csv  — one row per finding, for spreadsheet/pandas analysis
//
// The layout mirrors the run_all → validate → analyze artifact convention
// (SNIPPETS.md Snippet 1): the JSON is the machine-readable verdict, the CSV
// is what analysis consumes. Writing is deterministic for a deterministic
// report — no timestamps, no host metadata — so artifact diffs show real
// changes.
func (r *Report) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "results.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(jf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}

	cf, err := os.Create(filepath.Join(dir, "results.csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(cf)
	if err := w.Write([]string{
		"hypothesis", "type", "claim", "unit", "label", "pass",
		"baseline", "treatment", "effect", "min_effect", "got",
	}); err != nil {
		cf.Close()
		return err
	}
	for _, o := range r.Outcomes {
		for _, f := range o.Findings {
			rec := []string{
				o.ID, o.Type, o.Claim, o.Unit, f.Label, strconv.FormatBool(f.Pass),
				num(f.Baseline), num(f.Treatment), num(f.Effect), num(o.MinEffect), f.Got,
			}
			if err := w.Write(rec); err != nil {
				cf.Close()
				return err
			}
		}
		if len(o.Findings) == 0 { // malformed hypothesis: still leave a row
			if err := w.Write([]string{o.ID, o.Type, o.Claim, o.Unit, "", "false", "", "", "", "", o.Err}); err != nil {
				cf.Close()
				return err
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

func num(v float64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%g", v)
}
