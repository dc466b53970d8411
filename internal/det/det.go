// Package det holds tiny helpers for deterministic iteration over Go maps.
//
// Go randomises map iteration order on purpose; the runtime's determinism
// contract (DESIGN.md §3.7–§3.9) forbids letting that order reach anything
// observable — message emission, float accumulation, collected output.
// Engines iterate maps through SortedKeys so every run, at any worker count,
// folds in the same order. graphlint's maprange check (internal/lint)
// enforces the contract statically.
package det

import (
	"cmp"
	"slices"
)

// SortedKeys returns the keys of m in ascending order. The extra O(k log k)
// is paid only where map contents feed deterministic state; hot loops keep
// slices.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks) // keys are unique, so any correct sort gives this order
	return ks
}
