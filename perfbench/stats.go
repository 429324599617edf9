package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the "p90" of a handful of runs is
// just their maximum under another name.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether it may be reported: at least minBeyond samples must rank
// above it. xs is not modified.
func tail(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	k := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if k < 1 {
		k = 1
	}
	return sorted(xs)[k-1], n-k >= minBeyond
}

// tailOrZero is tail for metric tables, where an unreportable
// percentile reads as 0 ("not measured on this workload").
func tailOrZero(xs []float64, p float64) float64 {
	if v, ok := tail(xs, p); ok {
		return v
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
