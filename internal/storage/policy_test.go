package storage

import (
	"os"
	"testing"

	"graphsys/internal/graph/gen"
)

// TestProviderFor pins the one provider choice every engine run makes: the
// graph in memory without a policy, a metered spill the run owns under the
// disk policy, and a caller's Source, never owned, either way. Closing the
// spill removes its file. It swaps the process policy, so it must not run
// in parallel with other tests.
func TestProviderFor(t *testing.T) {
	g := gen.RMAT(9, 8, 13)
	caller := InMemory(g)

	prov, owned, err := ProviderFor(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prov.(*MemProvider); !ok || owned {
		t.Fatalf("no policy: got %T (owned %v), want an unowned *MemProvider", prov, owned)
	}
	if p, owned, err := ProviderFor(g, caller, 2); err != nil || p != caller || owned {
		t.Fatalf("no policy, caller source: got %v (owned %v, err %v), want the caller's provider, unowned", p, owned, err)
	}

	dir := t.TempDir()
	SetDefault(&Policy{Disk: true, BlockBytes: 1 << 10, Dir: dir})
	t.Cleanup(func() { SetDefault(nil) })
	if p, owned, err := ProviderFor(g, caller, 2); err != nil || p != caller || owned {
		t.Fatalf("disk policy, caller source: got %v (owned %v, err %v), want the caller's provider, unowned", p, owned, err)
	}
	prov, owned, err = ProviderFor(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !owned || prov.Footprint().Kind != "disk" {
		t.Fatalf("disk policy: got %T with footprint %+v (owned %v), want an owned metered spill", prov, prov.Footprint(), owned)
	}
	for w := 0; w < 2; w++ {
		checkSourceMatchesGraph(t, prov.Handle(w), g)
	}
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("closing the spill left %d file(s) in its directory", len(left))
	}
}

// TestMeter: a meter exists only for a traced run over a metered provider,
// a nil meter is inert, and the per-round slices sum to the totals.
func TestMeter(t *testing.T) {
	g := gen.RMAT(9, 8, 14)
	if m := NewMeter(InMemory(g), true); m != nil {
		t.Fatal("NewMeter over an in-memory provider is not nil")
	}
	var none *Meter
	none.Round(0)
	if none.Trace() != nil {
		t.Fatal("a nil meter returned a storage section")
	}

	pol := &Policy{Disk: true, BlockBytes: 1 << 10, Dir: t.TempDir()}
	p, err := pol.spill(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if m := NewMeter(p, false); m != nil {
		t.Fatal("NewMeter for an untraced run is not nil")
	}
	m := NewMeter(p, true)
	h := p.Handle(0)
	for r := 0; r < 3; r++ {
		sweep(t, h, 1)
		m.Round(r)
	}
	st := m.Trace()
	if st.Kind != "disk" || len(st.Rounds) != 3 || st.BytesRead != p.Stats().BytesRead {
		t.Fatalf("bad storage section: %+v", st)
	}
	var sum IOStats
	for i, r := range st.Rounds {
		if r.Round != i {
			t.Fatalf("round %d recorded as %d", i, r.Round)
		}
		sum = sum.Add(IOStats{Hits: r.Hits, Misses: r.Misses, Evictions: r.Evictions, BlocksRead: r.BlocksRead, BytesRead: r.BytesRead})
	}
	if sum != p.Stats() {
		t.Fatalf("rounds sum to %+v, provider totals %+v", sum, p.Stats())
	}
}
