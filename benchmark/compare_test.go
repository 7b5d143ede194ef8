package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99, 100.5, 99.5, 100.2}
	noisy := []float64{60, 140, 100, 80, 120, 100} // quartiles 75 and 125: spread 0.5
	// Faster on median, but two runs no faster than the base's best.
	mixed := []float64{90, 89, 88, 101, 100.5, 89.5}
	for _, c := range []struct {
		name         string
		base, next   []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same runs", tight, tight, 0.1, false, unchanged},
		{"small shift within the bound", tight, scaled(tight, 1.03), 0.1, false, unchanged},
		{"latency up past the bound", tight, scaled(tight, 1.2), 0.1, false, worse},
		{"every new run faster, within the bound", tight, scaled(tight, 0.97), 0.1, false, better},
		{"median faster past the bound, runs overlap", tight, mixed, 0.1, false, unresolved},
		{"median faster past a wide bound, runs overlap", tight, mixed, 0.15, false, unchanged},
		{"spread wider than the bound", tight, noisy, 0.1, false, unresolved},
		{"noisy base", noisy, tight, 0.1, false, unresolved},
		{"throughput down past the bound", scaled(tight, 1.2), tight, 0.1, true, worse},
		{"throughput up, every run higher", tight, scaled(tight, 1.5), 0.1, true, better},
	} {
		if got := judge(c.base, c.next, c.bound, c.higherBetter); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesReportsEveryRowAndFailsOnWorse(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "submit_p50_us", Unit: "us", Better: "lower", Bound: 0.1},
		{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "direct"})
	// Each run is appended on its own, as separate invocations would.
	write := func(name string, lat, rate []float64) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range lat {
			run := &runResult{Workload: "direct", CalibNS: 500, EndToEnd: map[string]float64{
				"submit_p50_us": lat[i], "rounds_per_s": rate[i]}}
			if err := appendResults(path, hostInfo{NumCPU: 2}, []*runResult{run}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	lat := []float64{30, 30.2, 29.8, 30.1, 29.9}
	rate := []float64{7e5, 7.1e5, 6.9e5, 7.05e5, 6.95e5}
	a := write("a.json", lat, rate)
	if f, err := readResults(a); err != nil || len(f.Runs) != len(lat) {
		t.Fatalf("appended file holds %v runs (err %v), want %d", f, err, len(lat))
	}
	var out bytes.Buffer
	if got := compareFiles(&out, spec, a, a); got != 0 {
		t.Fatalf("self-compare exit %d:\n%s", got, out.String())
	}
	if n := strings.Count(out.String(), unchanged); n != 2 {
		t.Fatalf("self-compare: %d unchanged rows, want 2:\n%s", n, out.String())
	}
	b := write("b.json", scaled(lat, 1.3), rate)
	out.Reset()
	if got := compareFiles(&out, spec, a, b); got != 1 || !strings.Contains(out.String(), worse) {
		t.Fatalf("30%% slower submits: exit %d, want 1 with a worse row:\n%s", got, out.String())
	}
}
