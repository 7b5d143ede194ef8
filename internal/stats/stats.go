// Package stats provides the small statistics and reporting toolkit used
// by the experiment harness: summaries, histograms, aligned text tables
// and ASCII series plots for the "figure" experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary aggregates a sample of float64 observations. The JSON tags
// give it a stable serialized form for tooling that persists summaries
// (e.g. the submit latency in rrload's -json report).
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	if len(sorted) > 1 {
		ss := 0.0
		for _, x := range sorted {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// SummarizeDurations computes a Summary of ds expressed in milliseconds
// — the unit the load-generator reports request latencies in. An empty
// sample yields a zero Summary.
func SummarizeDurations(ds []time.Duration) Summary {
	if len(ds) == 0 {
		return Summary{}
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return Summarize(ms)
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of a sorted sample using
// linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p90=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P90, s.Max)
}

// Histogram counts observations into uniform-width bins over [lo, hi].
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	Under  int
	Over   int
}

// NewHistogram builds a histogram with the given bin count over [lo, hi].
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic("stats: NewHistogram needs bins ≥ 1 and hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if idx >= len(h.Bins) {
			idx = len(h.Bins) - 1
		}
		h.Bins[idx]++
	}
}

// Total reports the number of recorded observations including outliers.
func (h *Histogram) Total() int {
	n := h.Under + h.Over
	for _, b := range h.Bins {
		n += b
	}
	return n
}
