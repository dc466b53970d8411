package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestServeSweepMatchesResults pins the serving sweep exactly: every cell is
// a pure function of the simulator's inputs, so the rendered table must equal
// the committed serve-sweep section of results.txt byte for byte.
func TestServeSweepMatchesResults(t *testing.T) {
	data, err := os.ReadFile("../../results.txt")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(data), "== serve-sweep:")
	if start < 0 {
		t.Fatal("results.txt has no serve-sweep section")
	}
	want := string(data[start:])
	if end := strings.Index(want, "\n\n== "); end >= 0 {
		want = want[:end+2]
	}
	var got strings.Builder
	ServeSweep().Fprint(&got)
	if got.String() != want {
		t.Errorf("ServeSweep() differs from results.txt:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
