package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	wantStd := math.Sqrt(2.5) // sample variance of 1..5 is 2.5
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty Summarize = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.P90 != 7 {
		t.Fatalf("single Summarize = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {-1, 10}, {2, 40},
		{0.5, 25}, // linear interpolation between 20 and 30
		{1.0 / 3.0, 20},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("Percentile of empty = %v", got)
	}
}

// Property: Min ≤ P50 ≤ P90 ≤ Max and Min ≤ Mean ≤ Max.
func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter NaN/Inf and clamp magnitudes so the sum cannot overflow
		// (Summarize targets experiment metrics, not ±1e308 extremes).
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				clean = append(clean, x)
			}
		}
		s := Summarize(clean)
		if s.N == 0 {
			return true
		}
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.Max &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 100} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("Under=%d Over=%d", h.Under, h.Over)
	}
	if h.Bins[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d", h.Bins[0])
	}
	if h.Bins[1] != 1 { // 2
		t.Fatalf("bin1 = %d", h.Bins[1])
	}
	if h.Bins[4] != 1 { // 9.99
		t.Fatalf("bin4 = %d", h.Bins[4])
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram accepted")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestSummaryString(t *testing.T) {
	if s := Summarize([]float64{1, 2}).String(); s == "" {
		t.Fatal("empty String")
	}
}

// TestSummaryJSONRoundTrip pins the serialization contract: the exported
// fields survive a JSON roundtrip bit-exactly.
func TestSummaryJSONRoundTrip(t *testing.T) {
	orig := Summarize([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != orig.N || back.Mean != orig.Mean || back.Std != orig.Std ||
		back.Min != orig.Min || back.Max != orig.Max ||
		back.P50 != orig.P50 || back.P90 != orig.P90 || back.P99 != orig.P99 {
		t.Fatalf("exported fields changed across roundtrip:\n got %+v\nwant %+v", back, orig)
	}
}
