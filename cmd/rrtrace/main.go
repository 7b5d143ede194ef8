// Command rrtrace generates, converts and inspects workload traces in the
// repository's JSON/CSV interchange formats, so instances used in
// experiments can be exported, shared and replayed byte-for-byte.
//
// Usage:
//
//	rrtrace -gen router -rounds 2048 -seed 7 -o trace.json
//	rrtrace -convert trace.json -o trace.csv
//	rrtrace -stat trace.json
//	rrtrace -play trace.json -policy dlruedf -n 8 -metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		gen     = flag.String("gen", "", fmt.Sprintf("generate a workload: %v", workload.Names()))
		convert = flag.String("convert", "", "convert an existing trace file (json⇄csv by extension)")
		stat    = flag.String("stat", "", "print statistics of a trace file")
		play    = flag.String("play", "", "stream a trace file through an online policy and print the result")
		out     = flag.String("o", "", "output path (extension selects json or csv; default stdout as json)")
		rounds  = flag.Int("rounds", 1024, "rounds for generated workloads")
		seed    = flag.Uint64("seed", 1, "generator seed")
		delta   = flag.Int("delta", 8, "reconfiguration cost Δ")
		load    = flag.Float64("load", 6, "offered load for stochastic workloads")
		n       = flag.Int("n", 8, "n parameter for appendix constructions")
		j       = flag.Int("j", 6, "j parameter for appendix constructions")
		k       = flag.Int("k", 8, "k parameter for appendix constructions")

		polName     = flag.String("policy", "dlruedf", fmt.Sprintf("policy for -play: %s", strings.Join(serve.PolicySpecs(), " | ")))
		metrics     = flag.Bool("metrics", false, "with -play: print latency/occupancy histograms")
		traceEvents = flag.String("trace-events", "", "with -play: write per-round engine events as JSON lines to this file")
	)
	flag.Parse()

	switch {
	case *gen != "":
		inst, err := generate(*gen, *rounds, *seed, *delta, *load, *n, *j, *k)
		if err != nil {
			fatal(err)
		}
		if err := writeTrace(inst, *out); err != nil {
			fatal(err)
		}
	case *convert != "":
		inst, err := readTrace(*convert)
		if err != nil {
			fatal(err)
		}
		if err := writeTrace(inst, *out); err != nil {
			fatal(err)
		}
	case *stat != "":
		inst, err := readTrace(*stat)
		if err != nil {
			fatal(err)
		}
		printStats(inst)
	case *play != "":
		inst, err := readTrace(*play)
		if err != nil {
			fatal(err)
		}
		if err := playTrace(inst, *polName, *n, *metrics, *traceEvents); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(name string, rounds int, seed uint64, delta int, load float64, n, j, k int) (*sched.Instance, error) {
	return workload.ByName(name, workload.Params{
		Seed: seed, Delta: delta, Rounds: rounds, Load: load, N: n, J: j, K: k,
	})
}

func readTrace(path string) (*sched.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.ReadCSV(f)
	}
	return trace.ReadJSON(f)
}

func writeTrace(inst *sched.Instance, path string) error {
	if path == "" {
		return trace.WriteJSON(os.Stdout, inst)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return trace.WriteCSV(f, inst)
	}
	return trace.WriteJSON(f, inst)
}

// playTrace feeds the instance's arrival batches round by round through a
// Stream — the same path a live deployment would use — then drains the
// backlog and prints the Result plus any requested sink reports.
func playTrace(inst *sched.Instance, polName string, n int, metrics bool, eventPath string) error {
	pol, err := serve.NewPolicy(polName)
	if err != nil {
		return err
	}

	var probes sched.MultiProbe
	var sink *sched.MetricsSink
	if metrics {
		sink = sched.NewMetricsSink(inst.MaxDelay(), 4*inst.MaxDelay()*n)
		probes = append(probes, sink)
	}
	var ew *trace.EventWriter
	if eventPath != "" {
		f, err := os.Create(eventPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ew = trace.NewEventWriter(f)
		probes = append(probes, ew)
	}
	var probe sched.Probe
	switch len(probes) {
	case 0:
	case 1:
		probe = probes[0]
	default:
		probe = probes
	}

	st, err := sched.NewStream(pol, sched.StreamConfig{
		N: n, Delta: inst.Delta, Delays: inst.Delays, Probe: probe,
	})
	if err != nil {
		return err
	}
	for r := 0; r < inst.NumRounds(); r++ {
		var req sched.Request
		if r < len(inst.Requests) {
			req = inst.Requests[r]
		}
		if err := st.Advance(req); err != nil {
			return err
		}
	}
	if _, err := st.Drain(); err != nil {
		return err
	}
	res := st.Result()
	fmt.Printf("played %s through %s (n=%d)\n", inst.Name, res.Policy, n)
	fmt.Println(res)
	if sink != nil {
		if err := sink.Report(os.Stdout); err != nil {
			return err
		}
	}
	if ew != nil {
		if err := ew.Err(); err != nil {
			return err
		}
	}
	return nil
}

func printStats(inst *sched.Instance) {
	fmt.Printf("name:    %s\n", inst.Name)
	fmt.Printf("Δ:       %d\n", inst.Delta)
	fmt.Printf("colors:  %d\n", inst.NumColors())
	fmt.Printf("rounds:  %d (horizon %d)\n", inst.NumRounds(), inst.Horizon())
	fmt.Printf("jobs:    %d\n", inst.TotalJobs())
	fmt.Printf("batched: %v   rate-limited: %v   pow2 delays: %v\n",
		inst.IsBatched(), inst.IsRateLimited(), inst.HasPowerOfTwoDelays())

	per := inst.JobsPerColor()
	type row struct{ c, jobs int }
	var rows []row
	for c, jobs := range per {
		if jobs > 0 {
			rows = append(rows, row{c, jobs})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].jobs > rows[j].jobs })
	if len(rows) > 10 {
		rows = rows[:10]
	}
	tab := stats.NewTable("top colors", "color", "delay", "jobs")
	for _, r := range rows {
		tab.AddRow(r.c, inst.Delays[r.c], r.jobs)
	}
	if err := tab.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrtrace:", err)
	os.Exit(1)
}
