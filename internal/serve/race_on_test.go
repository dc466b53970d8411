//go:build race

package serve

// raceEnabled lets allocation-sensitive tests skip under the race detector,
// whose instrumentation allocates on paths that are allocation-free in
// normal builds.
const raceEnabled = true
