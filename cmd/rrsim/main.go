// Command rrsim runs one scheduling policy on one workload and prints the
// cost breakdown, per-color statistics, an optional ASCII Gantt chart of
// the schedule, and the certified offline lower bound.
//
// Usage:
//
//	rrsim -workload router -policy dlruedf -n 16 -rounds 2048 -load 6
//	rrsim -workload appendixA -policy dlru -n 8 -j 6 -k 8
//	rrsim -workload zipf -policy solve -n 16 -m 2 -lb
//	rrsim -workload thrashing -policy edf -n 8 -gantt 64
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	rrs "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/offline"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "router", fmt.Sprintf("workload: %v", workload.Names()))
		policyName   = flag.String("policy", "dlruedf", "policy: dlruedf | adaptive | solve | distribute | dlru | edf | seqedf | hysteresis | greedy | never | static")
		n            = flag.Int("n", 16, "online resources")
		m            = flag.Int("m", 2, "offline reference resources (for -lb)")
		delta        = flag.Int("delta", 8, "reconfiguration cost Δ")
		rounds       = flag.Int("rounds", 2048, "workload rounds")
		seed         = flag.Uint64("seed", 1, "generator seed")
		load         = flag.Float64("load", 6, "offered load (jobs/round) for stochastic workloads")
		j            = flag.Int("j", 6, "Appendix A/B parameter j")
		k            = flag.Int("k", 8, "Appendix A/B parameter k")
		gap          = flag.Int("gap", 32, "idle gap for the thrashing workload")
		lb           = flag.Bool("lb", false, "also print the certified lower bound with m resources")
		perColor     = flag.Bool("colors", false, "print per-color executed/dropped table")
		gantt        = flag.Int("gantt", 0, "render a Gantt chart of the first N rounds (direct policies only)")
		analyze      = flag.Int("analyze", 0, "print a windowed timeline with the given window width and a per-QoS-class breakdown (direct policies only)")
		metrics      = flag.Bool("metrics", false, "print engine metrics: latency/occupancy histograms (direct policies only)")
		traceEvents  = flag.String("trace-events", "", "write per-round engine events as JSON lines to this file (direct policies only)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "checkpoint the run every N rounds (direct policies only; 0 = off)")
		ckptPath     = flag.String("checkpoint", "rrsim.ckpt", "checkpoint file written by -checkpoint-every")
		resumePath   = flag.String("resume", "", "resume a run from this checkpoint file instead of starting fresh")
	)
	flag.Parse()

	inst, err := workload.ByName(*workloadName, workload.Params{
		Seed: *seed, Delta: *delta, Rounds: *rounds, Load: *load,
		N: *n, J: *j, K: *k, Gap: *gap,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s: %d colors, %d rounds, %d jobs, Δ=%d\n",
		inst.Name, inst.NumColors(), inst.NumRounds(), inst.TotalJobs(), inst.Delta)

	// Assemble the observability probe requested by -metrics/-trace-events.
	var probes sched.MultiProbe
	var metricsSink *sched.MetricsSink
	if *metrics {
		metricsSink = sched.NewMetricsSink(inst.MaxDelay(), 4*inst.MaxDelay()*(*n))
		probes = append(probes, metricsSink)
	}
	var eventWriter *trace.EventWriter
	if *traceEvents != "" {
		f, err := os.Create(*traceEvents)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		eventWriter = trace.NewEventWriter(f)
		probes = append(probes, eventWriter)
	}
	var probe sched.Probe
	if len(probes) == 1 {
		probe = probes[0]
	} else if len(probes) > 1 {
		probe = probes
	}

	var res *rrs.Result
	if *ckptEvery > 0 || *resumePath != "" {
		if *gantt > 0 || *analyze > 0 {
			fatal(fmt.Errorf("-checkpoint-every/-resume run via the stream engine, which records no schedule; drop -gantt/-analyze"))
		}
		res, err = runStreamed(*policyName, inst, *n, *ckptEvery, *ckptPath, *resumePath, probe)
	} else {
		res, err = runPolicy(*policyName, inst, *n, *gantt > 0 || *analyze > 0, probe)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(res)

	if metricsSink != nil {
		if metricsSink.Rounds == 0 {
			fmt.Println("(no engine metrics for this policy mode; -metrics needs a direct policy)")
		} else if err := metricsSink.Report(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if eventWriter != nil {
		if err := eventWriter.Err(); err != nil {
			fatal(err)
		}
	}

	if *analyze > 0 {
		if res.Schedule == nil {
			fmt.Println("(no schedule recorded for this policy mode; -analyze needs a direct policy)")
		} else {
			ws, err := analysis.Timeline(inst.Clone(), res.Schedule, *analyze)
			if err != nil {
				fatal(err)
			}
			if err := analysis.TimelineTable(ws, "timeline").Render(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if err := analysis.ClassTable(analysis.ByDelayClass(inst, res), "per delay class").Render(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *gantt > 0 {
		if res.Schedule == nil {
			fmt.Println("(no schedule recorded for this policy mode; -gantt needs a direct policy)")
		} else if err := res.Schedule.RenderGantt(os.Stdout, 0, *gantt); err != nil {
			fatal(err)
		}
	}
	if *lb {
		b := offline.LowerBound(inst.Clone(), *m)
		fmt.Printf("certified LB (m=%d): %d  (ParEDF drops=%d, per-color Δ bound=%d)\n",
			*m, b.Value(), b.ParEDFDrops, b.ColorCost)
		fmt.Printf("cost ratio vs LB: %.3f\n", float64(res.Cost.Total())/float64(max64(b.Value(), 1)))
	}
	if *perColor {
		printColors(inst, res)
	}
}

func runPolicy(name string, inst *rrs.Instance, n int, record bool, probe sched.Probe) (*rrs.Result, error) {
	switch name {
	case "solve":
		return core.Solve(inst, n)
	case "distribute":
		return core.Distribute(inst, n)
	case "static":
		return offline.StaticCost(inst, offline.BestStaticColors(inst, n), n)
	}
	pol, err := newDirectPolicy(name)
	if err != nil {
		return nil, err
	}
	return sched.Run(inst, pol, sched.Options{N: n, Record: record, Probe: probe})
}

// newDirectPolicy builds a fresh instance of one of the policies the
// round engine can drive directly (everything except the layered
// solve/distribute/static modes).
func newDirectPolicy(name string) (sched.Policy, error) {
	switch name {
	case "dlruedf":
		return core.NewDLRUEDF(), nil
	case "adaptive":
		return core.NewDLRUEDF(core.WithAdaptiveSplit()), nil
	case "dlru":
		return policy.NewDLRU(), nil
	case "edf":
		return policy.NewEDF(), nil
	case "seqedf":
		return policy.NewSeqEDF(), nil
	case "hysteresis":
		return policy.NewHysteresis(1), nil
	case "greedy":
		return policy.NewGreedyPending(), nil
	case "never":
		return policy.NewNever(), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// runStreamed drives the instance through the Stream front-end so the
// run can be checkpointed every N rounds and resumed after a crash. A
// resumed run continues from the checkpoint's round and produces the
// same Result the uninterrupted run would (the engine's deterministic-
// resume guarantee), so -resume composes with -checkpoint-every to
// survive repeated interruptions.
func runStreamed(name string, inst *rrs.Instance, n, every int, ckpt, resume string, probe sched.Probe) (*rrs.Result, error) {
	pol, err := newDirectPolicy(name)
	if err != nil {
		return nil, err
	}
	if every < 0 {
		return nil, fmt.Errorf("-checkpoint-every must be ≥ 0, got %d", every)
	}
	inst = inst.Normalize()
	var st *sched.Stream
	if resume != "" {
		st, err = trace.LoadCheckpoint(resume, pol, probe)
		if err != nil {
			return nil, err
		}
		fmt.Printf("resumed %s from %s at round %d\n", pol.Name(), resume, st.Round())
	} else {
		st, err = sched.NewStream(pol, sched.StreamConfig{
			N: n, Delta: inst.Delta, Delays: inst.Delays, Probe: probe,
		})
		if err != nil {
			return nil, err
		}
	}
	saved := 0
	for st.Round() < inst.NumRounds() || st.TotalPending() > 0 {
		var req sched.Request
		if r := st.Round(); r < inst.NumRounds() {
			req = inst.Requests[r]
		}
		if err := st.Advance(req); err != nil {
			return nil, err
		}
		if every > 0 && st.Round()%every == 0 {
			if err := trace.SaveCheckpoint(ckpt, st); err != nil {
				return nil, err
			}
			saved++
		}
	}
	if every > 0 {
		// Final checkpoint so the finished state is durable too.
		if err := trace.SaveCheckpoint(ckpt, st); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %d checkpoints to %s\n", saved+1, ckpt)
	}
	return st.Result(), nil
}

func printColors(inst *rrs.Instance, res *rrs.Result) {
	per := inst.JobsPerColor()
	type row struct{ c, jobs, exec, drop int }
	var rows []row
	for c := range per {
		if per[c] > 0 {
			rows = append(rows, row{c, per[c], res.ExecByColor[c], res.DropsByColor[c]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].jobs > rows[j].jobs })
	tab := stats.NewTable("per-color", "color", "delay", "jobs", "executed", "dropped")
	for _, r := range rows {
		tab.AddRow(r.c, inst.Delays[r.c], r.jobs, r.exec, r.drop)
	}
	if err := tab.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrsim:", err)
	os.Exit(1)
}
