// Command benchmark is the repository's end-to-end benchmark. It builds
// cmd/rrserved and cmd/rrproxy from the repository, starts them as real
// processes on loopback, drives them from this one process through the
// public serve.Client and serve.Pipeline API, verifies every tenant's
// result against a local replay, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md beside this file defines them.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh                               # all four workloads
//	bash benchmark/run.sh -workload direct -seed 3      # one workload
//	bash benchmark/run.sh -workload proxy -trace 1      # traced: per-layer numbers
//	bash benchmark/run.sh -reps 5 -out a.json           # record runs for -compare
//	bash benchmark/run.sh -compare a.json b.json        # verdict per metric and workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the single list of workloads and metrics.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return &s, nil
}

// hostInfo describes the machine a result file was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// resultFile is what -out writes and -compare reads. Writing to an
// existing file appends the new runs, so one file can collect the runs
// of several invocations.
type resultFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// appendResults adds runs to the result file at path, creating it.
func appendResults(path string, host hostInfo, runs []*runResult) error {
	f := resultFile{Host: host}
	if old, err := readResults(path); err == nil {
		f.Runs = old.Runs
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Host calibration: a fixed loop of standard-library code only (CRC-32
// of 16 KiB, then 500 steps of a linear congruential generator), run on
// GOMAXPROCS goroutines at once in refChunks timed chunks of
// refChunkIters iterations each, about 15 ms in all. No repository code
// runs in it, so a change to the repository cannot move it; the shared
// host's speed, which drifts by ±15% over seconds to minutes, does.
// refNominalNS is its typical ns per iteration on the 2-vCPU host the
// bounds were set on (see README.md).
const (
	refChunks     = 8
	refChunkIters = 1000
	refNominalNS  = 1600
)

// calibrate times the calibration loop and returns the median ns per
// iteration over every goroutine's chunks.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	per := make([][]float64, procs)
	sums := make([]uint64, procs)
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16<<10)
			for i := range buf {
				buf[i] = byte(i)
			}
			var s uint64
			for c := 0; c < refChunks; c++ {
				t0 := time.Now()
				for k := 0; k < refChunkIters; k++ {
					s += uint64(crc32.ChecksumIEEE(buf))
					for j := 0; j < 500; j++ {
						s = s*6364136223846793005 + 1442695040888963407
					}
				}
				per[g] = append(per[g], float64(time.Since(t0).Nanoseconds())/refChunkIters)
			}
			sums[g] = s // kept, so the loop cannot be optimised away
		}()
	}
	wg.Wait()
	for _, s := range sums {
		sink += int(s)
	}
	return median(slices.Concat(per...))
}

// line is the JSON object the last line of standard output carries.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(benchMain()) }

func benchMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "seed every trace derives from")
		secs         = flag.Float64("seconds", 0, "measured traffic time per run (0 = run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
		reps         = flag.Int("reps", 1, "runs per workload, seeds seed, seed+1, …; medians and quartiles are reported")
		outPath      = flag.String("out", "", "write every run's numbers to this file, for -compare")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments")
		buildDir     = flag.String("build", ".bench_build", "directory for binaries, scratch state and trace files")
	)
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("-compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
	}
	var defs []workloadDef
	if *workloadName == "all" {
		for _, w := range spec.Workloads {
			d, _ := workloadByName(w.Name) // loadSpec checked every name
			defs = append(defs, d)
		}
	} else {
		d, err := workloadByName(*workloadName)
		if err != nil {
			logf("%v", err)
			return 2
		}
		defs = []workloadDef{d}
	}
	measureFor := time.Duration(*secs * float64(time.Second))
	if measureFor <= 0 {
		measureFor = time.Duration(spec.RunSeconds) * time.Second
	}
	if measureFor <= 0 || *reps < 1 || *traceFlag < 0 || *traceFlag > 1 {
		logf("need positive -seconds and -reps, and -trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1

	procs := newProcSet()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logf("%v: stopping servers", sig)
		procs.killAll()
		os.Exit(1)
	}()

	binDir := filepath.Join(*buildDir, "bin")
	if err := buildServers(".", binDir); err != nil {
		logf("%v", err)
		return 1
	}
	host := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s\n", host.NumCPU, host.GOMAXPROCS, host.GoVersion)

	var results []*runResult
	for _, def := range defs {
		for rep := 0; rep < *reps; rep++ {
			cfg := runConfig{
				workload: def, seed: *seed + uint64(rep), seconds: measureFor, trace: traced,
				binDir:  binDir,
				workDir: filepath.Join(*buildDir, "work", fmt.Sprintf("%s-%d", def.name, os.Getpid())),
				procs:   procs, logf: logf,
			}
			if traced {
				cfg.traceOut = filepath.Join(*buildDir, "trace-"+def.name+".json")
			}
			logf("%s seed %d: %v of traffic, traced=%v", def.name, cfg.seed, measureFor, traced)
			res, err := runGuarded(cfg, logf)
			if err != nil {
				logf("%s seed %d: %v", def.name, cfg.seed, err)
				failed := line{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
				if res != nil {
					failed.Attempted, failed.Failed = max(res.Attempted, 1), max(res.Failed, 1)
				}
				emit(failed)
				return 1
			}
			printRun(res, spec, traced)
			results = append(results, res)
		}
	}
	if *outPath != "" {
		if err := appendResults(*outPath, host, results); err != nil {
			logf("writing %s: %v", *outPath, err)
			return 1
		}
	}
	if *reps > 1 {
		printSpread(results, spec, traced)
	}
	if traced {
		printProxyTax(results)
	}
	out, err := summarize(results, spec, traced, len(defs) > 1 || *reps > 1)
	if err != nil {
		logf("%v", err)
		return 1
	}
	emit(out)
	if !out.Correct {
		return 1
	}
	return 0
}

// runGuarded runs one workload under a watchdog: a run that overstays
// its limit has its servers killed and the benchmark exits non-zero.
func runGuarded(cfg runConfig, logf func(string, ...any)) (*runResult, error) {
	limit := 3*cfg.seconds + 110*time.Second
	dog := time.AfterFunc(limit, func() {
		logf("%s: run exceeded %v; stopping", cfg.workload.name, limit)
		cfg.procs.killAll()
		os.Exit(1)
	})
	defer dog.Stop()
	return runWorkload(cfg)
}

func emit(l line) {
	b, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding result: %v\n", err)
		b = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	fmt.Println(string(b))
}

// printRun prints one run's metrics, one per line with its unit, and
// anything it found wrong.
func printRun(res *runResult, spec *benchSpec, traced bool) {
	fmt.Printf("\n== %s seed %d: correct=%v attempted=%d failed=%d host.calib_ns=%.1f\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed, res.CalibNS)
	list, vals := spec.EndToEnd, res.EndToEnd
	if traced {
		list, vals = spec.PerLayer, res.PerLayer
	}
	for _, m := range list {
		fmt.Printf("  %-26s %14.4f %s\n", m.Name, vals[m.Name], m.Unit)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (info) %-19s %14.4f\n", k, res.Info[k])
	}
	for _, p := range res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// printSpread prints, per workload and metric, the median and quartiles
// over the repetitions, and the interquartile spread as a share of the
// median, which the metric's bound must exceed for comparisons to
// resolve.
func printSpread(results []*runResult, spec *benchSpec, traced bool) {
	f := resultFile{Runs: results}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	fmt.Printf("\n%-26s %-11s %-30s %7s %6s\n", "metric", "workload", "median [q1, q3]", "spread", "bound")
	for _, m := range list {
		vals := f.values(m.Name, traced)
		for _, w := range spec.Workloads {
			if xs := vals[w.Name]; len(xs) > 0 {
				fmt.Printf("%-26s %-11s %-30s %6.1f%% %5.0f%%\n", m.Name, w.Name, side(xs), 100*spread(xs), 100*m.Bound)
			}
		}
	}
}

// printProxyTax prints the routing tax, client.submit.p50_us on proxy
// minus the same on direct, when a traced invocation ran both.
func printProxyTax(results []*runResult) {
	v := (&resultFile{Runs: results}).values("client.submit.p50_us", true)
	if len(v["proxy"]) > 0 && len(v["direct"]) > 0 {
		fmt.Printf("\nproxy.tax_us %.4f us (client.submit.p50_us on proxy minus on direct)\n",
			median(v["proxy"])-median(v["direct"]))
	}
}

// summarize builds the final JSON line: every metric BENCHMARK.json
// lists for the mode, by name. With several runs each metric is keyed
// workload.metric and its value is the median over the runs.
func summarize(results []*runResult, spec *benchSpec, traced, keyed bool) (line, error) {
	out := line{Correct: true, Metrics: map[string]metricValue{}}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	byWorkload := map[string][]*runResult{}
	var order []string
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		for _, m := range list {
			var xs []float64
			for _, r := range byWorkload[w] {
				vals := r.EndToEnd
				if traced {
					vals = r.PerLayer
				}
				v, ok := vals[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					return out, fmt.Errorf("%s: metric %s was not measured (%v)", w, m.Name, v)
				}
				xs = append(xs, v)
			}
			name := m.Name
			if keyed {
				name = w + "." + m.Name
			}
			out.Metrics[name] = metricValue{Value: median(xs), Unit: m.Unit}
		}
	}
	return out, nil
}
