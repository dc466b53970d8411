package experiments

import "testing"

// TestServeSweepMatchesResults pins the serving sweep exactly: every cell is
// a pure function of the simulator's inputs, so the rendered table must equal
// the committed serve-sweep section of results.txt byte for byte.
func TestServeSweepMatchesResults(t *testing.T) {
	_, sections := goldenSections(t)
	want, ok := sections["serve-sweep"]
	if !ok {
		t.Fatal("results.txt has no serve-sweep section")
	}
	if got := render(rendering(t, "serve-sweep")); got != want {
		t.Errorf("ServeSweep() differs from results.txt:\n--- got\n%s--- want\n%s", got, want)
	}
}
