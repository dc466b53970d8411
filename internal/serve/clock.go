package serve

import (
	"sync"
	"time"
)

// Clock is the injectable time source every serving engine stamps latencies
// and checks deadlines with. Engines never read the host clock
// directly: the clock arrives through Options, so tests and the load
// generator substitute a LogicalClock and the whole serving tier becomes
// wall-clock-free (graphlint's wallclock check covers this package).
type Clock func() time.Time

// WallClock returns the host clock — the default for interactive serving,
// where latency is an observation about the host, never engine state.
func WallClock() Clock {
	//lint:allow wallclock interactive serving latency is host observability, not engine state; deterministic paths inject a LogicalClock instead
	return time.Now
}

// LogicalClock is a manually advanced deterministic clock. Its zero value
// starts at the zero time; Advance moves it forward. Safe for concurrent
// use.
type LogicalClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewLogicalClock returns a logical clock starting at start.
func NewLogicalClock(start time.Time) *LogicalClock {
	return &LogicalClock{now: start}
}

// Now returns the current logical time.
func (c *LogicalClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored: logical time
// never runs backwards).
func (c *LogicalClock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Clock adapts the logical clock to the Clock injection point.
func (c *LogicalClock) Clock() Clock { return c.Now }
