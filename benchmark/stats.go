package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	// The epsilon keeps 0.98·500 at rank 490 despite binary rounding.
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// supported reports whether n samples leave at least minBeyond samples
// beyond the nearest-rank q-quantile.
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// quantile returns the nearest-rank q-quantile of sorted samples (0 for
// none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tail is the q-quantile of sorted samples under the sample-count rule:
// when q is not supported it falls back to the highest percentile that
// is, and reports the percentile actually used.
func tail(sorted []float64, q float64) (v, used float64) {
	for q > 0.5 && !supported(len(sorted), q) {
		q = math.Round((q-0.01)*100) / 100
	}
	q = max(q, 0.5)
	return quantile(sorted, q), q
}

// sortedFloats returns a sorted copy of xs.
func sortedFloats(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// durs converts durations to sorted floats in the given unit.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	slices.Sort(out)
	return out
}

// median is the middle value of xs (the mean of the middle two for an
// even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sortedFloats(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match the ones the acceptance rule
// computes. With fewer than two values both quartiles equal the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedFloats(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
