package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// pkgRef resolves a selector expression's base to an imported package path.
// It prefers type information (alias- and shadowing-aware); when the
// identifier was not resolved (stubbed import edge cases) it falls back to
// matching the file's import names.
func (p *Pass) pkgRef(f *ast.File, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if obj := p.Info.Uses[id]; obj != nil {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path(), true
		}
		return "", false // resolved to a variable/type, not a package
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := pathBase(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path, true
		}
	}
	return "", false
}

func inList(s string, list []string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// WallClock forbids reading the host clock in the deterministic engine
// packages: the cluster's metered cost model is the clock there, and a
// time.Now that leaks into results makes reruns incomparable.
var WallClock = &Check{
	Name: "wallclock",
	Doc:  "no time.Now/time.Since (or timers) in deterministic engine paths; the metered cost model is the clock",
	Run: func(p *Pass) {
		if !p.PkgInScope(p.Cfg.WallclockPkgs) {
			return
		}
		for _, f := range p.Files {
			base := filepath.Base(p.Fset.Position(f.Pos()).Filename)
			allowed := false
			for _, sub := range p.Cfg.WallclockAllowFiles {
				if strings.Contains(base, sub) {
					allowed = true
					break
				}
			}
			if allowed {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !inList(sel.Sel.Name, p.Cfg.WallclockDenied) {
					return true
				}
				if path, ok := p.pkgRef(f, sel); ok && path == "time" {
					p.Reportf("wallclock", sel.Pos(),
						"%s.%s in a deterministic engine path; the metered cost model is the clock (inject a clock or annotate //lint:allow wallclock)",
						sel.X.(*ast.Ident).Name, sel.Sel.Name)
				}
				return true
			})
		}
	},
}

// GlobalRand forbids the process-global math/rand functions in internal/:
// crash recovery snapshots RNG draw positions (gnndist countedSource), which
// only works when every draw goes through an injected seeded *rand.Rand.
var GlobalRand = &Check{
	Name: "globalrand",
	Doc:  "no global math/rand top-level functions in internal/; inject a seeded *rand.Rand so recovery can rewind draws",
	Run: func(p *Pass) {
		if !p.PkgInScope(p.Cfg.RandScope) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !inList(sel.Sel.Name, p.Cfg.RandDenied) {
					return true
				}
				if path, ok := p.pkgRef(f, sel); ok && inList(path, p.Cfg.RandPkgs) {
					p.Reportf("globalrand", sel.Pos(),
						"global %s.%s draws from process-wide RNG state; thread a seeded *rand.Rand so recovery snapshots stay exact",
						sel.X.(*ast.Ident).Name, sel.Sel.Name)
				}
				return true
			})
		}
	},
}

// NakedGo keeps goroutine creation inside the cluster runtime, the tensor
// worker pool and the serving tier (Config.GoAllowed). Ad-hoc goroutines
// elsewhere bypass the barrier/panic aggregation, busy metering and fault
// injection the runtime provides.
var NakedGo = &Check{
	Name: "nakedgo",
	Doc:  "no go statements outside internal/cluster, the internal/tensor worker pool and internal/serve; the runtime owns concurrency",
	Run: func(p *Pass) {
		if !p.PkgInScope(p.Cfg.GoScope) || p.PkgInScope(p.Cfg.GoAllowed) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf("nakedgo", g.Pos(),
						"go statement outside the cluster runtime/tensor pool; route concurrency through cluster.Gang or tensor.ParallelDo, or annotate //lint:allow nakedgo")
				}
				return true
			})
		}
	},
}

// PanicPolicy enforces the PR 2 error contract: exported entry points return
// errors. A panic lexically inside an exported function (of an exported
// receiver) is flagged unless the package is a shape-validation kernel
// (tensor, nn) or the site carries a justified annotation. Panics in
// unexported helpers are the helper's contract and are not chased
// interprocedurally.
var PanicPolicy = &Check{
	Name: "panicpolicy",
	Doc:  "exported functions outside tensor/nn shape-validation must not panic; return errors (PR 2 contract)",
	Run: func(p *Pass) {
		if !p.PkgInScope(p.Cfg.PanicScope) || p.PkgInScope(p.Cfg.PanicExempt) {
			return
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !fd.Name.IsExported() || !receiverExported(fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					id, ok := call.Fun.(*ast.Ident)
					if !ok || id.Name != "panic" {
						return true
					}
					if obj := p.Info.Uses[id]; obj != nil {
						if _, builtin := obj.(*types.Builtin); !builtin {
							return true // locally shadowed
						}
					}
					p.Reportf("panicpolicy", call.Pos(),
						"panic in exported %s; exported entry points return errors (annotate //lint:allow panicpolicy for documented programmer-error preconditions)",
						fd.Name.Name)
					return true
				})
			}
		}
	},
}

// receiverExported reports whether fd is a plain function or a method whose
// receiver base type is exported (methods on unexported types are not part
// of the package surface).
func receiverExported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[K]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
