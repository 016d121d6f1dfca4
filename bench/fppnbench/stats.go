package main

import (
	"math"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minTail = 10

// rank returns the 1-based nearest-rank position of quantile q among n
// sorted samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(n, r))
}

// tailSamples returns how many of n samples lie beyond quantile q.
func tailSamples(q float64, n int) int { return n - rank(q, n) }

// quantile returns the nearest-rank q-quantile of ascending samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[rank(q, len(sorted))-1]
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// median returns the median of xs, sorting them in place; 0 when empty.
func median[T time.Duration | float64](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
