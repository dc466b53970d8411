package det

import (
	"sort"
	"testing"
)

func TestSortedKeysInt(t *testing.T) {
	m := map[int]string{5: "e", 1: "a", 3: "c", 2: "b", 4: "d"}
	for trial := 0; trial < 8; trial++ { // map order is randomised per range
		ks := SortedKeys(m)
		if !sort.IntsAreSorted(ks) {
			t.Fatalf("trial %d: keys not sorted: %v", trial, ks)
		}
		if len(ks) != len(m) {
			t.Fatalf("trial %d: got %d keys, want %d", trial, len(ks), len(m))
		}
	}
}

func TestSortedKeysString(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	ks := SortedKeys(m)
	want := []string{"a", "b", "c"}
	for i, k := range ks {
		if k != want[i] {
			t.Fatalf("got %v, want %v", ks, want)
		}
	}
}

func TestSortedKeysEmpty(t *testing.T) {
	if ks := SortedKeys(map[int]int{}); len(ks) != 0 {
		t.Fatalf("got %v, want empty", ks)
	}
}

func TestSortedKeysNil(t *testing.T) {
	var m map[string]struct{}
	ks := SortedKeys(m)
	if len(ks) != 0 {
		t.Fatalf("nil map: got %v, want empty", ks)
	}
	if ks == nil {
		t.Fatal("nil map: want an empty (non-nil) slice, so callers can range and append uniformly")
	}
}

func TestSortedKeysUint64(t *testing.T) {
	m := map[uint64]bool{1 << 40: true, 3: true, 1 << 20: true, 0: true}
	ks := SortedKeys(m)
	want := []uint64{0, 3, 1 << 20, 1 << 40}
	for i, k := range ks {
		if k != want[i] {
			t.Fatalf("got %v, want %v", ks, want)
		}
	}
}

func TestSortedKeysFloat64(t *testing.T) {
	m := map[float64]int{2.5: 1, -1.5: 2, 0: 3}
	ks := SortedKeys(m)
	want := []float64{-1.5, 0, 2.5}
	for i, k := range ks {
		if k != want[i] {
			t.Fatalf("got %v, want %v", ks, want)
		}
	}
}

func TestSortedKeysInt32(t *testing.T) {
	m := map[int32]string{-7: "a", 42: "b", 0: "c"}
	ks := SortedKeys(m)
	want := []int32{-7, 0, 42}
	for i, k := range ks {
		if k != want[i] {
			t.Fatalf("got %v, want %v", ks, want)
		}
	}
}

// TestSortedKeysSingleton pins the len==cap preallocation contract: one key,
// one slot.
func TestSortedKeysSingleton(t *testing.T) {
	ks := SortedKeys(map[int]int{9: 1})
	if len(ks) != 1 || ks[0] != 9 {
		t.Fatalf("got %v, want [9]", ks)
	}
	if cap(ks) != 1 {
		t.Fatalf("cap=%d, want exactly the key count (no over-allocation)", cap(ks))
	}
}

// TestSortedKeysAllocs: the key slice is the only allocation (no reflection
// swapper, no comparison closure).
func TestSortedKeysAllocs(t *testing.T) {
	m := map[int32]int{7: 0, 3: 0, 11: 0, 5: 0, 2: 0, 13: 0}
	if a := testing.AllocsPerRun(100, func() { SortedKeys(m) }); a != 1 {
		t.Fatalf("SortedKeys allocates %v per call, want 1", a)
	}
}
