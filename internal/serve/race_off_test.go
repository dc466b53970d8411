//go:build !race

package serve

// raceEnabled lets allocation-sensitive tests skip under the race detector.
const raceEnabled = false
