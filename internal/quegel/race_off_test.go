//go:build !race

package quegel

// raceEnabled lets allocation-sensitive tests skip under the race detector.
const raceEnabled = false
