package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// timing is the summary every timing carries in the report: how many
// samples, the fastest, the fast decile, the median, and the median absolute
// deviation around it.
type timing struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	P10    float64 `json:"p10"`
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	Unit   string  `json:"unit"`
	// Samples are the raw values in the order measured, kept in report.json so
	// drift and bimodality can be seen after the fact.
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64, unit string) timing {
	if len(xs) == 0 {
		return timing{Unit: unit}
	}
	med := median(xs)
	dev := make([]float64, len(xs))
	lo := xs[0]
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
		lo = math.Min(lo, x)
	}
	return timing{N: len(xs), Min: lo, P10: percentile(xs, 10), Median: med, MAD: median(dev), Unit: unit, Samples: xs}
}

// madPct is the MAD as a percentage of the median.
func (t timing) madPct() float64 {
	if t.Median == 0 {
		return 0
	}
	return 100 * t.MAD / t.Median
}
