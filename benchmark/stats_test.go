package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, ten beyond
		{999, 0.99, false},
		{500, 0.98, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestTailFallsBackToTheHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n        int
		wantV    float64
		wantUsed float64
	}{
		{2000, 1980, 0.99},
		{1000, 990, 0.99},
		{500, 490, 0.98},
		{50, 40, 0.80},
		{15, 8, 0.50}, // too few for any tail: the median
	} {
		v, used := tail(ramp(c.n), 0.99)
		if v != c.wantV || math.Abs(used-c.wantUsed) > 1e-9 {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", c.n, v, 100*used, c.wantV, 100*c.wantUsed)
		}
	}
	if v, _ := tail(nil, 0.99); v != 0 {
		t.Errorf("tail of no samples = %g, want 0", v)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := ramp(10)
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.91: 10, 0.01: 1, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", q, got, want)
		}
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), the
// spreads the acceptance rule computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ramp(10), 2.75, 8.25},
		{ramp(4), 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5}, // exclusive: interpolated outside the data
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread(ramp(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}
