package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares a metric's runs on a new commit against the base's.
// The change is the shift of the median as a share of the base median,
// signed so positive is worse. A row is better outright when every new
// run beats every base run. Otherwise, when either side's interquartile
// spread, as a share of its median, exceeds the bound, the runs cannot
// resolve a change of that size and the row is unresolved; else it is
// worse or better when the change exceeds the bound, and unchanged
// within it.
func judge(base, next []float64, bound float64, higherBetter bool) string {
	mb, mn := median(base), median(next)
	if mb == 0 {
		return unresolved
	}
	change := (mn - mb) / mb
	if higherBetter {
		change = -change
	}
	beats := func(n, b float64) bool {
		if higherBetter {
			return n > b
		}
		return n < b
	}
	dominates := len(base) > 0 && len(next) > 0
	for _, n := range next {
		for _, b := range base {
			dominates = dominates && beats(n, b)
		}
	}
	switch {
	case dominates:
		return better
	case spread(base) > bound || spread(next) > bound:
		return unresolved
	case change > bound:
		return worse
	case change < -bound:
		return better
	default:
		return unchanged
	}
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// calib is the median host calibration over the file's runs.
func (f *resultFile) calib() float64 {
	var xs []float64
	for _, r := range f.Runs {
		xs = append(xs, r.CalibNS)
	}
	return median(xs)
}

// values collects one metric's values per workload, in run order.
func (f *resultFile) values(metric string, perLayer bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range f.Runs {
		vals := r.EndToEnd
		if perLayer {
			vals = r.PerLayer
		}
		if v, ok := vals[metric]; ok {
			out[r.Workload] = append(out[r.Workload], v)
		}
	}
	return out
}

// compareFiles prints one row per (metric, workload) present in both
// result files: each side's median and quartiles and, for end-to-end
// metrics, the verdict under BENCHMARK.json's bound. Per-layer metrics
// have no bound and get no verdict. It returns 1 when any row is worse
// or unresolved.
func compareFiles(w io.Writer, spec *benchSpec, basePath, nextPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	next, err := readResults(nextPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cb, cn := base.calib(), next.calib()
	fmt.Fprintf(w, "host.calib_ns  base %.1f  new %.1f  (%+.1f%%: host drift moves every row alike)\n",
		cb, cn, 100*(cn/cb-1))
	fmt.Fprintf(w, "%-26s %-11s %-30s %-30s %8s  %s\n", "metric", "workload", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	status := 0
	rows := func(list []metricSpec, perLayer bool) {
		for _, m := range list {
			bv, nv := base.values(m.Name, perLayer), next.values(m.Name, perLayer)
			for _, wl := range spec.Workloads {
				b, n := bv[wl.Name], nv[wl.Name]
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				verdict := "-"
				if !perLayer {
					verdict = judge(b, n, m.Bound, m.Better == "higher")
					if verdict == worse || verdict == unresolved {
						status = 1
					}
				}
				change := 100 * (median(n)/median(b) - 1)
				fmt.Fprintf(w, "%-26s %-11s %-30s %-30s %+7.1f%%  %s\n", m.Name, wl.Name, side(b), side(n), change, verdict)
			}
		}
	}
	rows(spec.EndToEnd, false)
	rows(spec.PerLayer, true)
	return status
}

func side(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
