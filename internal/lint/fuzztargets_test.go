package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestFuzzTargetsListed: `make fuzz` runs exactly the fuzzers the Makefile's
// FUZZ_TARGETS names, each as Name:./pkgdir/, so every top-level func Fuzz*
// in the module's _test.go files must be listed under its own package, and
// every listed fuzzer must exist there. Nested modules (bench/) have their
// own test runs and are skipped.
func TestFuzzTargetsListed(t *testing.T) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	listed := makefileFuzzTargets(t, root)
	declared := declaredFuzzers(t, root)
	for name, dirs := range declared {
		for _, dir := range dirs {
			switch {
			case slices.Contains(listed[name], dir):
			case len(listed[name]) == 0:
				t.Errorf("%s (in %s) is missing from the Makefile's FUZZ_TARGETS", name, dir)
			default:
				t.Errorf("FUZZ_TARGETS lists %s under %s; it is declared in %s", name, strings.Join(listed[name], " "), dir)
			}
		}
	}
	for name, dirs := range listed {
		for _, dir := range dirs {
			if !slices.Contains(declared[name], dir) {
				t.Errorf("FUZZ_TARGETS lists %s:%s, which no _test.go file there declares", name, dir)
			}
		}
	}
}

// makefileFuzzTargets returns FUZZ_TARGETS' entries as fuzzer name → the
// package directories ("./internal/x/") it is listed under.
func makefileFuzzTargets(t *testing.T, root string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "FUZZ_TARGETS =")
		if !ok {
			continue
		}
		listed := map[string][]string{}
		for _, entry := range strings.Fields(rest) {
			name, dir, ok := strings.Cut(entry, ":")
			if !ok {
				t.Fatalf("FUZZ_TARGETS entry %q is not Name:./pkgdir/", entry)
			}
			listed[name] = append(listed[name], dir)
		}
		return listed
	}
	t.Fatal("the Makefile has no FUZZ_TARGETS line")
	return nil
}

// declaredFuzzers returns every top-level func Fuzz* in the module's
// _test.go files as name → the package directories ("./internal/x/") that
// declare it, skipping dot directories, testdata and nested modules.
func declaredFuzzers(t *testing.T, root string) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	declared := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := "./" + filepath.ToSlash(rel) + "/"
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				declared[fd.Name.Name] = append(declared[fd.Name.Name], dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzzers: the walk is broken")
	}
	return declared
}
