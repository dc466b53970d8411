package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphsys/internal/lint"
)

// buildTool compiles graphlint once per test binary into a temp dir and
// returns the executable path plus the module root to run it from.
func buildTool(t *testing.T) (tool, root string) {
	t.Helper()
	root, _, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	tool = filepath.Join(t.TempDir(), "graphlint")
	cmd := exec.Command("go", "build", "-o", tool, "./cmd/graphlint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/graphlint: %v\n%s", err, out)
	}
	return tool, root
}

// TestPlantedHotAllocFails is the end-to-end negative test: pointed at a tree
// with a planted hot-path allocation, the tool must exit 1 and the output
// must name hotalloc with a root→site call chain.
func TestPlantedHotAllocFails(t *testing.T) {
	tool, root := buildTool(t)

	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "planted")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package planted

//lint:hotpath the planted root
func Hot(n int) { helper(n) }

func helper(n int) {
	_ = make([]int, n)
}
`
	if err := os.WriteFile(filepath.Join(pkg, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(tool, "-root", dir, "-module", "planted", "-checks", "hotalloc", "./...")
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 on a planted allocation, got err=%v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "hotalloc") {
		t.Fatalf("output does not name the hotalloc check:\n%s", out)
	}
	if !strings.Contains(out, "internal/planted.Hot → helper") {
		t.Fatalf("output does not carry the root→site call chain:\n%s", out)
	}
}

// TestFixtureTreeFailsWithChains runs the tool over the committed golden
// fixtures: diagnostics there are expected (that is what the fixtures are
// for), so exit must be 1 and chains must render.
func TestFixtureTreeFailsWithChains(t *testing.T) {
	tool, root := buildTool(t)
	cmd := exec.Command(tool, "-root", filepath.Join("internal", "lint", "testdata", "src"), "-module", "fixture", "-checks", "hotalloc,lockorder", "./...")
	cmd.Dir = root
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 over the fixtures, got %v\n%s", err, &stdout)
	}
	out := stdout.String()
	for _, want := range []string{"hotalloc", "lockorder", "→"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fixture output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONFlag pins -json, the report CI uploads: over the fixture tree it
// prints a JSON array of the same diagnostics, in the same order, as the
// text output, and exits 1; over a clean scope it prints [], not null, and
// exits 0.
func TestJSONFlag(t *testing.T) {
	tool, root := buildTool(t)
	run := func(wantExit int, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(tool, args...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if exit != wantExit {
			t.Fatalf("%v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, exit, wantExit, &stdout, &stderr)
		}
		return stdout.Bytes()
	}

	fixture := []string{"-root", filepath.Join("internal", "lint", "testdata", "src"), "-module", "fixture"}
	text := run(1, append(fixture, "./...")...)
	var diags []lint.Diagnostic
	if out := run(1, append(fixture, "-json", "./...")...); json.Unmarshal(out, &diags) != nil {
		t.Fatalf("-json output over the fixtures is not a JSON array of diagnostics:\n%s", out)
	}
	if len(diags) == 0 {
		t.Fatal("-json printed no diagnostics over the fixture tree")
	}
	var fromJSON strings.Builder
	for _, d := range diags {
		fromJSON.WriteString(d.String() + "\n")
	}
	if fromJSON.String() != string(text) {
		t.Fatalf("-json diagnostics differ from the text output:\njson:\n%s\ntext:\n%s", fromJSON.String(), text)
	}

	if out := run(0, "-json", "-checks", "maprange", "./internal/det"); strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("-json over a clean scope printed %q, want []", out)
	}
}

// TestBudgetFlag pins the -budget contract: an absurdly small budget fails
// (exit 2) even on a clean tree.
func TestBudgetFlag(t *testing.T) {
	tool, root := buildTool(t)
	cmd := exec.Command(tool, "-budget", "1ns", "-checks", "maprange", "./internal/det")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on a blown budget, got %v\nstderr:\n%s", err, &stderr)
	}
	if !strings.Contains(stderr.String(), "budget") {
		t.Fatalf("stderr does not mention the budget:\n%s", &stderr)
	}
}
