// Command graphlint runs the repo's contract checks (internal/lint) over the
// module and prints positioned diagnostics in deterministic order.
//
//	go run ./cmd/graphlint ./...            # whole module
//	go run ./cmd/graphlint ./internal/pregel
//	go run ./cmd/graphlint -json ./...      # machine-readable output
//	go run ./cmd/graphlint -checks maprange,wallclock ./...
//	go run ./cmd/graphlint -doc             # list checks and their contracts
//	go run ./cmd/graphlint -timing -budget 5s ./...   # the make lint target
//
// -root/-module point the driver at a tree other than the enclosing module
// (the golden fixtures are the motivating case):
//
//	go run ./cmd/graphlint -root internal/lint/testdata/src -module fixture ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 driver error (including a
// blown -budget).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphsys/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	doc := flag.Bool("doc", false, "print the checks and the contracts they enforce")
	rootFlag := flag.String("root", "", "analyse this tree instead of the enclosing module (e.g. the lint fixtures)")
	moduleFlag := flag.String("module", "", "module path of -root (import-resolution prefix; default: enclosing module's)")
	timing := flag.Bool("timing", false, "print per-check wall time to stderr")
	budget := flag.Duration("budget", 0, "fail (exit 2) if the whole run exceeds this duration (0 = no budget)")
	flag.Parse()

	if *doc {
		for _, c := range lint.Checks {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}

	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fail(err)
	}
	root, modpath, err := lint.ModuleRoot(".")
	if err != nil {
		fail(err)
	}
	if *rootFlag != "" {
		if root, err = filepath.Abs(*rootFlag); err != nil {
			fail(err)
		}
	}
	if *moduleFlag != "" {
		modpath = *moduleFlag
	}
	cfg := lint.Default()
	cfg.ModulePath = modpath

	diags, timings, err := lint.RunTimed(root, cfg, checks)
	if err != nil {
		fail(err)
	}
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "graphlint: %-12s %8.3fs\n", t.Name, t.Seconds)
		}
	}
	if scopes := argScopes(root, flag.Args()); scopes != nil {
		kept := diags[:0]
		for _, d := range diags {
			for _, s := range scopes {
				if s == "" || d.File == s || strings.HasPrefix(d.File, s+"/") {
					kept = append(kept, d)
					break
				}
			}
		}
		diags = kept
	}

	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{} // `[]`, not `null`
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "graphlint: %d contract violation(s)\n", len(diags))
		}
		os.Exit(1)
	}
	checkBudget(timings, *budget)
}

// checkBudget enforces -budget against the run's total wall time, keeping
// the interprocedural passes honest in make lint.
func checkBudget(timings []lint.Timing, budget time.Duration) {
	if budget <= 0 {
		return
	}
	for _, t := range timings {
		if t.Name == "total" && t.Seconds > budget.Seconds() {
			fail(fmt.Errorf("graphlint: run took %.3fs, over the %s budget", t.Seconds, budget))
		}
	}
}

func selectChecks(names string) ([]*lint.Check, error) {
	if names == "" {
		return lint.Checks, nil
	}
	byName := map[string]*lint.Check{}
	for _, c := range lint.Checks {
		byName[c.Name] = c
	}
	var out []*lint.Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("graphlint: unknown check %q (run -doc for the list)", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// argScopes maps CLI package arguments to module-relative dir prefixes used
// to filter diagnostics. "./..." (or no args) means the whole module → nil.
func argScopes(root string, args []string) []string {
	var scopes []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			return nil
		}
		a = strings.TrimSuffix(a, "/...")
		abs, err := filepath.Abs(a)
		if err != nil {
			continue
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		if rel == "." {
			return nil
		}
		scopes = append(scopes, filepath.ToSlash(rel))
	}
	return scopes
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
