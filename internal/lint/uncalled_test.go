package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledKeep lists the top-level functions and methods in internal/ that no
// non-test code names but that stay, each with its reason. A key is
// "pkgdir.Func" or "pkgdir.Recv.Method", pkgdir relative to internal/.
var uncalledKeep = map[string]string{
	"pregel.PageRankConverged":   "a program the crash sweep over every checkpointing engine will run",
	"pregel.WeightedSSSP":        "a program the crash sweep over every checkpointing engine will run",
	"pregel.KCore":               "README's engine table names k-core peeling for the TLAV engine",
	"pregel.LabelPropagation":    "README's engine table names label propagation for the TLAV engine",
	"pregel.RandomWalkVisits":    "README's engine table names random walks for the TLAV engine",
	"tthinker.MaximumClique":     "README's engine table names maximum cliques for the task engine",
	"tthinker.QuasiCliques":      "README's engine table names quasi-cliques for the task engine",
	"embed.Node2Vec":             "README's engine table names node2vec for the embeddings",
	"partition.Range":            "README names range partitioning; tests in four packages use its predictable layout",
	"serve.NewLogicalClock":      "the deterministic clock that tests in serve and gthinkerq substitute for WallClock",
	"serve.LogicalClock.Advance": "the deterministic clock that tests in serve and gthinkerq substitute for WallClock",
	"serve.Ticket.Cancel":        "the serving tier's only cancellation entry point, which README names",
	"lint.loader.Import":         "implements types.Importer for the type checker",
}

// TestNoUncalledFuncs is a name-level dead-code scan: every top-level func or
// method declared in non-test code under internal/ must be named by some
// non-test code in the module (cmd/, examples/, internal/) or in bench/*.go,
// outside its own body, or sit in uncalledKeep. Any same-named identifier
// counts as a use, so the scan undercounts dead code; it never reports a
// function that something names. internal/refmodel is exempt: its
// specifications exist for tests.
func TestNoUncalledFuncs(t *testing.T) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	uncalled, declared := scanFuncs(t, root)
	for _, key := range uncalled {
		if _, ok := uncalledKeep[key]; !ok {
			t.Errorf("%s is named by no non-test code: delete it, move it to a test file, or add it to uncalledKeep with a reason", key)
		}
	}
	for key := range uncalledKeep {
		if !declared[key] {
			t.Errorf("uncalledKeep lists %s, which is not declared", key)
		}
	}
}

// scanFuncs returns the keys of internal/'s top-level functions and methods
// that no non-test code names outside their own body, sorted, and the set of
// every key it checked.
func scanFuncs(t *testing.T, root string) (uncalled []string, declared map[string]bool) {
	t.Helper()
	uses := map[string]int{}
	declared = map[string]bool{}
	type decl struct {
		key string
		fd  *ast.FuncDecl
	}
	var decls []decl
	for _, f := range moduleFiles(t, root) {
		ast.Inspect(f.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		pkg, ok := strings.CutPrefix(f.dir, "internal/")
		if !ok || pkg == "refmodel" {
			continue
		}
		for _, d := range f.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				uses[fd.Name.Name]-- // the declaration's own name is not a use
				key := funcKey(pkg, fd)
				declared[key] = true
				decls = append(decls, decl{key, fd})
			}
		}
	}
	for _, d := range decls {
		name := d.fd.Name.Name
		if name == "init" || name == "main" || name == "_" {
			continue
		}
		self := 0
		if d.fd.Body != nil {
			ast.Inspect(d.fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					self++
				}
				return true
			})
		}
		if uses[name] <= self {
			uncalled = append(uncalled, d.key)
		}
	}
	sort.Strings(uncalled)
	return uncalled, declared
}

// funcKey names fd as "pkg.Func" or "pkg.Recv.Method".
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := "?"
	if id, ok := typ.(*ast.Ident); ok {
		name = id.Name
	}
	return pkg + "." + name + "." + fd.Name.Name
}

type parsedFile struct {
	dir  string // module-relative, slash-separated
	file *ast.File
}

// moduleFiles parses every non-test Go file of the module and of bench/,
// skipping dot directories, testdata (the lint fixtures) and the benchmark's
// build outputs.
func moduleFiles(t *testing.T, root string) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []parsedFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out = append(out, parsedFile{dir: filepath.ToSlash(filepath.Dir(rel)), file: f})
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	return out
}
