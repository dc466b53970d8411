// Package lint implements graphlint, the repo-specific static-analysis
// driver that machine-checks the runtime's behavioural contracts on every
// `make verify` (DESIGN.md §3.9, §3.14):
//
//   - maprange    — map iteration whose body emits messages or folds into
//     outer state must iterate sorted keys (internal/det.SortedKeys) or
//     carry a justified //lint:deterministic annotation. Go randomises map
//     order; letting it reach observable state breaks bitwise-reproducible
//     reruns (the Table 1 / Table 2 comparisons depend on them).
//   - wallclock   — no wall-clock reads in deterministic engine paths; the
//     cluster's metered cost model is the clock.
//   - globalrand  — no global math/rand top-level functions in internal/;
//     RNG is an injected seeded *rand.Rand so crash recovery can snapshot
//     and rewind draw positions exactly.
//   - nakedgo     — no `go` statements outside the cluster runtime and the
//     tensor worker pool; the runtime owns concurrency.
//   - panicpolicy — exported functions return errors instead of panicking
//     (the PR 2 error contract); documented programmer-error preconditions
//     carry a //lint:allow annotation.
//   - hotalloc    — interprocedural: no allocation site (make/new, map and
//     slice literals, growing append, closure capture, interface boxing at
//     call boundaries, string concat/conversion, fmt.*) is reachable on the
//     call graph from a declared hot-path root (Config.HotPathRoots or a
//     //lint:hotpath function) without a reasoned //lint:allow. The static
//     shadow of the PR 8 / PR 9 zero-alloc benchmark gates.
//   - lockorder   — interprocedural: infers the mutex-acquisition partial
//     order across internal/cluster, internal/serve and internal/storage
//     (locks held across calls propagate through function summaries) and
//     reports path pairs that acquire two locks in opposite orders, plus
//     re-acquisition of a lock already held (Go mutexes are not reentrant).
//
// The driver is stdlib-only (go/parser, go/ast, go/token, go/types). Checks
// are table-driven (Checks) so a new contract is ~30 lines: a Check value
// plus a fixture file. Per-package checks implement Run; whole-module
// interprocedural checks implement RunModule and see the call graph.
// Diagnostics are deterministic: sorted by file, line, column, check,
// message.
//
// Suppression directives (a reason is mandatory — an annotation without one
// is itself a diagnostic). Directives attach to the same line or the line
// below, and stack: a contiguous block of directive lines directly above a
// statement all apply to it.
//
//	//lint:deterministic <reason>   suppresses maprange on this or the next line
//	//lint:allow <check> <reason>   suppresses the named check on this or the next line
//	//lint:hotpath <description>    declares the function on this or the next line a hot-path root
//
// An annotation that suppresses zero diagnostics in a run covering its check
// is reported as stale (lintdirective): the suppression inventory cannot
// outlive the code it excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one positioned finding. File is module-relative and
// slash-separated so output is stable across machines.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one contract. Per-package checks set Run, which inspects a single
// package and reports through the pass. Interprocedural checks set RunModule,
// which sees every pass plus the module call graph. A check sets exactly one
// of the two.
type Check struct {
	Name      string
	Doc       string
	Run       func(p *Pass)
	RunModule func(m *Module)
}

// Checks is the registry, in documentation order. cmd/graphlint runs all of
// them unless -checks narrows the set.
var Checks = []*Check{MapRange, WallClock, GlobalRand, NakedGo, PanicPolicy, HotAlloc, LockOrder}

// checkNames is used to validate //lint:allow directives.
func checkNames() map[string]bool {
	m := map[string]bool{}
	for _, c := range Checks {
		m[c.Name] = true
	}
	return m
}

// Pass hands one type-checked package to a check.
type Pass struct {
	Fset  *token.FileSet
	Rel   string // module-relative package dir, e.g. "internal/pregel"
	Files []*ast.File
	Info  *types.Info
	Cfg   *Config

	relFile     func(string) string // absolute → module-relative file name
	diags       *[]Diagnostic
	annotations map[string]map[int]*annotation // rel file → line → directive
}

// Module hands the whole type-checked module to an interprocedural check:
// every per-package pass in deterministic order plus the call graph built
// over them. Reporting goes through the same annotation machinery as Pass,
// so a cross-package diagnostic is suppressed where it is reported, not
// where the hot-path root lives.
type Module struct {
	Fset   *token.FileSet
	Passes []*Pass
	Cfg    *Config

	graph       *callGraph
	relFile     func(string) string
	diags       *[]Diagnostic
	annotations map[string]map[int]*annotation
}

// Reportf records a diagnostic unless an annotation on the same line, or a
// directive block directly above, suppresses the check.
func (p *Pass) Reportf(check string, pos token.Pos, format string, args ...any) {
	report(p.Fset, p.relFile, p.annotations, p.diags, check, pos, format, args...)
}

// Reportf is the module-level twin of Pass.Reportf.
func (m *Module) Reportf(check string, pos token.Pos, format string, args ...any) {
	report(m.Fset, m.relFile, m.annotations, m.diags, check, pos, format, args...)
}

// Position renders a token.Pos as a module-relative "file:line" string for
// embedding in diagnostic messages (the cross-reference half of a lockorder
// pair, for example).
func (m *Module) Position(pos token.Pos) string {
	position := m.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", m.relFile(position.Filename), position.Line)
}

func report(fset *token.FileSet, relFile func(string) string, annos map[string]map[int]*annotation, diags *[]Diagnostic, check string, pos token.Pos, format string, args ...any) {
	position := fset.Position(pos)
	file := relFile(position.Filename)
	if ann := annotationAt(annos, file, position.Line, check); ann != nil {
		ann.used = true
		return
	}
	*diags = append(*diags, Diagnostic{
		Check:   check,
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// annotationAt finds a directive suppressing check at line: the line itself
// (trailing comment), or anywhere in the contiguous block of directive lines
// ending directly above it (directives stack, one per line).
func annotationAt(annos map[string]map[int]*annotation, file string, line int, check string) *annotation {
	byLine := annos[file]
	if byLine == nil {
		return nil
	}
	if ann := byLine[line]; ann != nil && ann.suppresses(check) {
		return ann
	}
	for l := line - 1; ; l-- {
		ann := byLine[l]
		if ann == nil {
			return nil
		}
		if ann.suppresses(check) {
			return ann
		}
	}
}

// PkgInScope reports whether the pass's package sits under any of the given
// module-relative prefixes ("internal" covers the whole internal tree).
func (p *Pass) PkgInScope(prefixes []string) bool {
	for _, pre := range prefixes {
		if pathWithin(p.Rel, pre) {
			return true
		}
	}
	return false
}

// pathWithin reports whether rel equals prefix or sits below it on a path
// segment boundary ("internal/cluster" is within "internal", not within
// "internal/clus").
func pathWithin(rel, prefix string) bool {
	return rel == prefix || strings.HasPrefix(rel, prefix+"/")
}

// annotation is one parsed //lint: directive.
type annotation struct {
	verb   string // "deterministic", "allow" or "hotpath"
	check  string // check it suppresses ("" for hotpath)
	reason string
	used   bool

	file string // module-relative file, for stale reporting
	line int
	col  int
}

func (a *annotation) suppresses(check string) bool {
	return a.verb != "hotpath" && a.reason != "" && a.check == check
}

// parseAnnotations extracts //lint: directives from a file. Malformed
// directives (unknown form, unknown check, missing reason) are reported as
// lintdirective diagnostics and suppress nothing: an unjustified exemption
// is a contract violation in its own right. Well-formed directives are also
// appended to all, the module-wide inventory the stale-suppression pass
// audits after every check has run.
func parseAnnotations(fset *token.FileSet, f *ast.File, known map[string]bool, diags *[]Diagnostic, rel func(string) string, all *[]*annotation) map[int]*annotation {
	out := map[int]*annotation{}
	report := func(pos token.Pos, msg string) {
		position := fset.Position(pos)
		*diags = append(*diags, Diagnostic{
			Check: "lintdirective", File: rel(position.Filename),
			Line: position.Line, Col: position.Column, Message: msg,
		})
	}
	keep := func(pos token.Pos, ann *annotation) {
		position := fset.Position(pos)
		ann.file = rel(position.Filename)
		ann.line = position.Line
		ann.col = position.Column
		out[position.Line] = ann
		*all = append(*all, ann)
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			verb, rest, _ := strings.Cut(text, " ")
			rest = strings.TrimSpace(rest)
			switch verb {
			case "deterministic":
				if rest == "" {
					report(c.Pos(), "//lint:deterministic needs a reason: //lint:deterministic <why iteration order cannot matter>")
					continue
				}
				keep(c.Pos(), &annotation{verb: verb, check: "maprange", reason: rest})
			case "allow":
				check, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if !known[check] {
					report(c.Pos(), fmt.Sprintf("//lint:allow names unknown check %q", check))
					continue
				}
				if reason == "" {
					report(c.Pos(), fmt.Sprintf("//lint:allow %s needs a reason: //lint:allow %s <justification>", check, check))
					continue
				}
				keep(c.Pos(), &annotation{verb: verb, check: check, reason: reason})
			case "hotpath":
				// rest is an optional description; the directive marks the
				// function declared on this or the next line as a hot-path
				// root for the hotalloc check.
				keep(c.Pos(), &annotation{verb: verb, reason: rest})
			default:
				report(c.Pos(), fmt.Sprintf("unknown lint directive %q (want deterministic, allow or hotpath)", verb))
			}
		}
	}
	return out
}

// reportStale audits the annotation inventory after every check has run: a
// directive that suppressed zero diagnostics — while the check it names was
// part of the run — is dead weight and gets a lintdirective diagnostic.
// //lint:hotpath is stale when it attaches to no function (it must sit on or
// directly above a func declaration or literal), judged only when the call
// graph was actually built.
func reportStale(all []*annotation, active map[string]bool, graphBuilt bool, diags *[]Diagnostic) {
	for _, a := range all {
		if a.used {
			continue
		}
		d := Diagnostic{Check: "lintdirective", File: a.file, Line: a.line, Col: a.col}
		switch a.verb {
		case "hotpath":
			if !graphBuilt || !active[HotAlloc.Name] {
				continue
			}
			d.Message = "//lint:hotpath marks no function (place it on or directly above a func declaration or literal)"
		default:
			if !active[a.check] {
				continue
			}
			d.Message = fmt.Sprintf("//lint:%s suppresses zero %s diagnostics (stale: fix the code or delete the annotation)", a.verb, a.check)
		}
		*diags = append(*diags, d)
	}
}

// Timing is one entry of a run's time budget report: the loader, each check,
// the call-graph build and the total.
type Timing struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Run loads every package under root (skipping testdata, vendor and hidden
// directories; _test.go files are out of scope — tests are oracles, not
// runtime paths), runs the given checks, and returns sorted diagnostics.
// Type information is best-effort per package: module-local imports are
// resolved from source, other imports are stubbed, and checks degrade
// conservatively where types are unknown.
func Run(root string, cfg *Config, checks []*Check) ([]Diagnostic, error) {
	diags, _, err := RunTimed(root, cfg, checks)
	return diags, err
}

// RunTimed is Run plus a per-check wall-time report, so `make lint -timing`
// can keep the interprocedural passes inside their budget.
func RunTimed(root string, cfg *Config, checks []*Check) ([]Diagnostic, []Timing, error) {
	t0 := time.Now()
	l, err := load(root, cfg.ModulePath)
	if err != nil {
		return nil, nil, err
	}
	timings := []Timing{{Name: "load", Seconds: time.Since(t0).Seconds()}}

	known := checkNames()
	var diags []Diagnostic
	var annos []*annotation
	byFile := map[string]map[int]*annotation{}
	var passes []*Pass
	for _, pk := range l.packages() {
		p := &Pass{
			Fset:        l.fset,
			Rel:         pk.rel,
			Files:       pk.files,
			Info:        pk.info,
			Cfg:         cfg,
			relFile:     l.relFile,
			diags:       &diags,
			annotations: byFile,
		}
		for _, f := range pk.files {
			name := l.relFile(l.fset.Position(f.Pos()).Filename)
			byFile[name] = parseAnnotations(l.fset, f, known, &diags, l.relFile, &annos)
		}
		passes = append(passes, p)
	}

	active := map[string]bool{}
	needModule := false
	for _, c := range checks {
		active[c.Name] = true
		if c.RunModule != nil {
			needModule = true
		}
	}

	var mod *Module
	if needModule {
		mod = &Module{
			Fset:        l.fset,
			Passes:      passes,
			Cfg:         cfg,
			relFile:     l.relFile,
			diags:       &diags,
			annotations: byFile,
		}
		tg := time.Now()
		mod.graph = buildCallGraph(mod)
		timings = append(timings, Timing{Name: "callgraph", Seconds: time.Since(tg).Seconds()})
	}

	for _, c := range checks {
		tc := time.Now()
		switch {
		case c.Run != nil:
			for _, p := range passes {
				c.Run(p)
			}
		case c.RunModule != nil:
			c.RunModule(mod)
		}
		timings = append(timings, Timing{Name: c.Name, Seconds: time.Since(tc).Seconds()})
	}

	reportStale(annos, active, mod != nil, &diags)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	timings = append(timings, Timing{Name: "total", Seconds: time.Since(t0).Seconds()})
	return diags, timings, nil
}
