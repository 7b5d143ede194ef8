// Package bench is the benchmark regression harness behind `rrbench
// -json` and `rrbench -compare`: it measures a fixed suite of named
// hot-path benchmarks (ns/op, allocs/op, bytes/op, plus rounds/s and
// jobs/s for simulator benchmarks), serializes them into a
// schema-versioned BENCH_<label>.json file, and compares two such files
// flagging regressions beyond a threshold. Future PRs' performance claims
// are measured against these files — see docs/PERFORMANCE.md for the
// workflow.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/stats"
)

// SchemaVersion identifies the BENCH file layout. Bump it on any
// incompatible change to File or Measurement; Compare refuses to compare
// files of different versions.
const SchemaVersion = 1

// Measurement is the recorded result of one named benchmark.
type Measurement struct {
	// Name identifies the benchmark; Compare matches measurements by it.
	Name string `json:"name"`
	// Samples is how many independent measurement samples were taken;
	// the per-op numbers below come from the fastest sample (the standard
	// way to suppress scheduling noise).
	Samples int `json:"samples"`
	// Iterations is the op count of the fastest sample.
	Iterations int `json:"iterations"`

	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// NsPerOpMean/Std summarize ns/op across all samples (via
	// stats.Summarize), exposing run-to-run noise next to the headline.
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	NsPerOpStd  float64 `json:"ns_per_op_std"`

	// RoundsPerSec and JobsPerSec are simulator-rate views of the same
	// sample, present only for benchmarks that declare how many rounds
	// and jobs one op simulates. StatesPerSec is the analogous rate for
	// exact-solver benchmarks (expanded search states per second) — the
	// throughput number docs/PERFORMANCE.md's solver table pins.
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
	JobsPerSec   float64 `json:"jobs_per_sec,omitempty"`
	StatesPerSec float64 `json:"states_per_sec,omitempty"`
}

// File is one serialized benchmark run: the unit BENCH_<label>.json
// stores and Compare consumes.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	Label         string `json:"label"`
	CreatedAt     string `json:"created_at"` // RFC3339
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`

	Benchmarks []Measurement `json:"benchmarks"`
}

// Rates declares what one op covers, for the per-second rate views of a
// measurement: simulator rounds and jobs for engine benchmarks, expanded
// search states for exact-solver benchmarks. Zero fields suppress the
// corresponding rate (e.g. for a comparator micro-benchmark).
type Rates struct {
	Rounds int
	Jobs   int
	States int
}

// Spec is one benchmark in a suite. Make builds a fresh warmed-up op
// closure and reports the Rates a single op covers.
type Spec struct {
	Name string
	Make func() (op func() error, rates Rates)
}

// Options tunes Run.
type Options struct {
	// Benchtime is the minimum measured duration per sample (default 1s,
	// like `go test -benchtime`). Small values (10ms) give a fast smoke
	// run whose numbers are noisy but whose schema is identical.
	Benchtime time.Duration
	// Samples per benchmark (default 3); the fastest is recorded.
	Samples int
	// Log, when non-nil, receives one progress line per benchmark.
	Log func(format string, args ...any)
}

func (o Options) benchtime() time.Duration {
	if o.Benchtime <= 0 {
		return time.Second
	}
	return o.Benchtime
}

func (o Options) samples() int {
	if o.Samples <= 0 {
		return 3
	}
	return o.Samples
}

// Run measures every spec and assembles the File.
func Run(label string, suite []Spec, opts Options) (*File, error) {
	f := &File{
		SchemaVersion: SchemaVersion,
		Label:         label,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
	for _, spec := range suite {
		m, err := measure(spec, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		if opts.Log != nil {
			opts.Log("%-32s %12.1f ns/op %8.1f allocs/op", m.Name, m.NsPerOp, m.AllocsPerOp)
		}
		f.Benchmarks = append(f.Benchmarks, m)
	}
	return f, Validate(f)
}

// measure times one spec: per sample it builds a fresh op, then grows the
// iteration count until the timed loop exceeds Benchtime, in the style of
// testing.B. Allocation counts come from runtime.MemStats deltas around
// the loop; for single-goroutine ops they are exact.
func measure(spec Spec, opts Options) (Measurement, error) {
	m := Measurement{Name: spec.Name, Samples: opts.samples()}
	var nsSamples []float64
	for s := 0; s < opts.samples(); s++ {
		op, rates := spec.Make()
		if err := op(); err != nil { // warm-up iteration
			return m, err
		}
		n := 1
		for {
			elapsed, mallocs, bytes, err := timeN(op, n)
			if err != nil {
				return m, err
			}
			if elapsed >= opts.benchtime() || n >= 1e9 {
				nsPerOp := float64(elapsed.Nanoseconds()) / float64(n)
				nsSamples = append(nsSamples, nsPerOp)
				if len(nsSamples) == 1 || nsPerOp < m.NsPerOp {
					m.NsPerOp = nsPerOp
					m.Iterations = n
					m.AllocsPerOp = float64(mallocs) / float64(n)
					m.BytesPerOp = float64(bytes) / float64(n)
					if rates.Rounds > 0 && nsPerOp > 0 {
						m.RoundsPerSec = float64(rates.Rounds) / (nsPerOp / 1e9)
					}
					if rates.Jobs > 0 && nsPerOp > 0 {
						m.JobsPerSec = float64(rates.Jobs) / (nsPerOp / 1e9)
					}
					if rates.States > 0 && nsPerOp > 0 {
						m.StatesPerSec = float64(rates.States) / (nsPerOp / 1e9)
					}
				}
				break
			}
			// Grow toward the target the way testing.B does: aim past the
			// benchtime, capped at 100× per step.
			grow := int(float64(n) * 1.5 * float64(opts.benchtime()) / float64(elapsed+1))
			n = min(max(n+1, grow), 100*n)
		}
	}
	sum := stats.Summarize(nsSamples)
	m.NsPerOpMean, m.NsPerOpStd = sum.Mean, sum.Std
	return m, nil
}

// timeN runs op n times and returns the wall time and allocation deltas.
func timeN(op func() error, n int) (elapsed time.Duration, mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// Validate checks a File's structural sanity: correct schema version,
// non-empty label, at least one benchmark, unique names, finite
// non-negative numbers. `rrbench -compare` validates both inputs, so a
// self-compare doubles as a schema check in CI.
func Validate(f *File) error {
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema version %d, this build reads %d", f.SchemaVersion, SchemaVersion)
	}
	if f.Label == "" {
		return fmt.Errorf("bench: empty label")
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("bench: no benchmarks recorded")
	}
	seen := make(map[string]bool, len(f.Benchmarks))
	for _, m := range f.Benchmarks {
		if m.Name == "" {
			return fmt.Errorf("bench: benchmark with empty name")
		}
		if seen[m.Name] {
			return fmt.Errorf("bench: duplicate benchmark %q", m.Name)
		}
		seen[m.Name] = true
		for _, v := range []float64{m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.RoundsPerSec, m.JobsPerSec, m.StatesPerSec} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("bench: %s has invalid value %v", m.Name, v)
			}
		}
		if m.Iterations < 1 {
			return fmt.Errorf("bench: %s has iterations %d", m.Name, m.Iterations)
		}
	}
	return nil
}

// WriteFile serializes f (validated) to path with stable indentation.
func WriteFile(path string, f *File) error {
	if err := Validate(f); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a BENCH file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := Validate(&f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Regression is one flagged metric change between two BENCH files.
type Regression struct {
	Name   string
	Metric string // "ns_per_op" or "allocs_per_op"
	Old    float64
	New    float64
	// Ratio is New/Old (∞ when Old is 0).
	Ratio float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.1f → %.1f (%.2fx)", r.Name, r.Metric, r.Old, r.New, r.Ratio)
}

// Comparison is the full result of comparing two BENCH files.
type Comparison struct {
	Regressions []Regression
	// Missing lists benchmarks present in old but absent from new. A
	// missing benchmark is a lost performance pin — a rename or deletion
	// that would let regressions slip through unmeasured — so Err treats
	// it as a failure, exactly like a regression. Intentional renames
	// must update the baseline file in the same change.
	Missing []string
	// Added lists benchmarks new to the second file (informational).
	Added []string
}

// Err returns nil when the comparison passes, and otherwise an error
// naming every flagged regression and every benchmark missing from the
// new file. `rrbench -compare` exits non-zero exactly when Err is
// non-nil, so a silently dropped benchmark fails as loudly as a slow
// one.
func (c *Comparison) Err() error {
	if len(c.Regressions) == 0 && len(c.Missing) == 0 {
		return nil
	}
	var parts []string
	if n := len(c.Regressions); n > 0 {
		names := make([]string, n)
		for i, r := range c.Regressions {
			names[i] = r.String()
		}
		parts = append(parts, fmt.Sprintf("%d regression(s): %s", n, strings.Join(names, "; ")))
	}
	if n := len(c.Missing); n > 0 {
		parts = append(parts, fmt.Sprintf("%d benchmark(s) missing from new file: %s",
			n, strings.Join(c.Missing, ", ")))
	}
	return fmt.Errorf("bench: %s", strings.Join(parts, "; "))
}

// Compare matches benchmarks by name and flags regressions beyond
// threshold (e.g. 0.10 = 10%): a time regression when new ns/op exceeds
// old·(1+threshold), and an allocation regression when allocs/op grows by
// more than max(½, old·threshold) — so zero-alloc contracts flag on any
// real allocation while large counts get proportional slack. Both files
// must carry the same schema version.
func Compare(old, new *File, threshold float64) (*Comparison, error) {
	if old.SchemaVersion != new.SchemaVersion {
		return nil, fmt.Errorf("bench: schema mismatch: old v%d vs new v%d", old.SchemaVersion, new.SchemaVersion)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("bench: negative threshold %v", threshold)
	}
	newByName := make(map[string]Measurement, len(new.Benchmarks))
	for _, m := range new.Benchmarks {
		newByName[m.Name] = m
	}
	oldSeen := make(map[string]bool, len(old.Benchmarks))
	cmp := &Comparison{}
	for _, o := range old.Benchmarks {
		oldSeen[o.Name] = true
		n, ok := newByName[o.Name]
		if !ok {
			cmp.Missing = append(cmp.Missing, o.Name)
			continue
		}
		if n.NsPerOp > o.NsPerOp*(1+threshold) {
			cmp.Regressions = append(cmp.Regressions, Regression{
				Name: o.Name, Metric: "ns_per_op",
				Old: o.NsPerOp, New: n.NsPerOp, Ratio: ratio(n.NsPerOp, o.NsPerOp),
			})
		}
		if n.AllocsPerOp > o.AllocsPerOp+math.Max(0.5, o.AllocsPerOp*threshold) {
			cmp.Regressions = append(cmp.Regressions, Regression{
				Name: o.Name, Metric: "allocs_per_op",
				Old: o.AllocsPerOp, New: n.AllocsPerOp, Ratio: ratio(n.AllocsPerOp, o.AllocsPerOp),
			})
		}
	}
	for _, m := range new.Benchmarks {
		if !oldSeen[m.Name] {
			cmp.Added = append(cmp.Added, m.Name)
		}
	}
	return cmp, nil
}

func ratio(new, old float64) float64 {
	if old == 0 {
		return math.Inf(1)
	}
	return new / old
}

// Table renders a comparison as a stats.Table for terminal output.
func (c *Comparison) Table() *stats.Table {
	tab := stats.NewTable("benchmark comparison", "benchmark", "metric", "old", "new", "ratio")
	for _, r := range c.Regressions {
		tab.AddRow(r.Name, r.Metric, r.Old, r.New, r.Ratio)
	}
	if len(c.Regressions) == 0 {
		tab.AddNote("no regressions")
	}
	if len(c.Missing) > 0 {
		tab.AddNote("MISSING from new file (fails the comparison): %v", c.Missing)
	}
	if len(c.Added) > 0 {
		tab.AddNote("new benchmarks: %v", c.Added)
	}
	return tab
}
