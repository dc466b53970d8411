package experiments

import (
	"os"
	"testing"

	"graphsys/internal/storage"
)

// TestSourceDiskMatchesMemory backs the `graphbench -source disk` claim
// (README, DESIGN.md §3.13): with the process-global disk policy installed
// — graphbench's defaults, LRU and a budget of half the raw CSR per graph —
// the experiments whose engines read adjacency through storage.ProviderFor
// render byte for byte what they render in memory, and every spill the
// engines made is removed by the time they return. It swaps the process
// policy, so it must not run in parallel with other tests.
func TestSourceDiskMatchesMemory(t *testing.T) {
	ids := []string{"claim-tlav", "ext-quegel", "ext-ftol", "tab2-async"}
	runs := map[string]func() *Table{}
	for _, e := range All() {
		runs[e.ID] = e.Run
	}
	mem := map[string]string{}
	for _, id := range ids {
		if runs[id] == nil {
			t.Fatalf("experiment %s is not registered", id)
		}
		mem[id] = render(rendering(t, id)) // before the policy goes in
	}
	dir := t.TempDir()
	storage.SetDefault(&storage.Policy{Disk: true, Evict: storage.LRU, Dir: dir})
	t.Cleanup(func() { storage.SetDefault(nil) })
	for _, id := range ids {
		if got := render(runs[id]()); got != mem[id] {
			t.Errorf("%s under -source disk differs from memory: %s", id, firstDiff(got, mem[id]))
		}
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		t.Errorf("spill file %s left behind", f.Name())
	}
}
