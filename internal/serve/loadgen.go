package serve

import (
	"fmt"
	"math/rand"
)

// Arrival is one generated query arrival: the open-loop load generator's
// unit. Ticks are logical time (the serving tier's metered clock); Cost is
// the query's service demand in work units.
type Arrival struct {
	At     int64 // arrival tick, non-decreasing across a workload
	Cost   int64 // service demand in work units (≥ 1)
	Weight int   // WeightedFair share (≥ 1)
}

// Sizer draws query service demands from an injected seeded RNG — the
// repo's globalrand contract: constructors are pure data, every draw goes
// through the caller's *rand.Rand.
type Sizer interface {
	Draw(rng *rand.Rand) int64
}

// Uniform draws sizes uniformly from [Min, Max].
type Uniform struct {
	Min, Max int64
}

// Draw implements Sizer.
func (u Uniform) Draw(rng *rand.Rand) int64 {
	if u.Max <= u.Min {
		return max64(u.Min, 1)
	}
	return max64(u.Min+rng.Int63n(u.Max-u.Min+1), 1)
}

// Bimodal draws a mostly-light, occasionally-heavy size mix — the
// interactive serving shape (selective point queries sharing the engine
// with analytical sweeps) where scheduling policy choices actually bite.
type Bimodal struct {
	Light  Uniform
	Heavy  Uniform
	PHeavy float64 // probability of a heavy draw
}

// Draw implements Sizer.
func (b Bimodal) Draw(rng *rand.Rand) int64 {
	// draw the coin first so the light/heavy streams stay aligned across
	// configurations with the same seed
	coin := rng.Float64()
	if coin < b.PHeavy {
		return b.Heavy.Draw(rng)
	}
	return b.Light.Draw(rng)
}

// PoissonArrivals generates n open-loop arrivals with exponential
// interarrival times at rate lambda (expected arrivals per tick), sizes
// drawn from sizes, unit weights. The process is open-loop by construction:
// arrival times depend only on the RNG, never on service progress. Returns
// ErrInvalidRequest for a non-positive n, lambda, or a nil sizer.
func PoissonArrivals(rng *rand.Rand, n int, lambda float64, sizes Sizer) ([]Arrival, error) {
	if rng == nil || n <= 0 || lambda <= 0 || sizes == nil {
		return nil, fmt.Errorf("%w: PoissonArrivals needs rng, n>0, lambda>0 and a sizer", ErrInvalidRequest)
	}
	out := make([]Arrival, n)
	var t float64
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / lambda
		out[i] = Arrival{At: int64(t), Cost: sizes.Draw(rng), Weight: 1}
	}
	return out, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
