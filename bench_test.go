package rrs

// This file is the benchmark harness required by DESIGN.md §3: one
// benchmark per experiment (table/figure), each regenerating its artifact
// through the internal/exp registry in Quick mode, plus micro-benchmarks
// of the hot paths (engine rounds, policy steps, offline bounds).
//
// Run with: go test -bench=. -benchmem

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/offline"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(exp.Config{Quick: true, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1AppendixA(b *testing.B)    { benchExperiment(b, "F1") }
func BenchmarkF2AppendixB(b *testing.B)    { benchExperiment(b, "F2") }
func BenchmarkF3Thrashing(b *testing.B)    { benchExperiment(b, "F3") }
func BenchmarkT1Theorem1(b *testing.B)     { benchExperiment(b, "T1") }
func BenchmarkT2Lemma32(b *testing.B)      { benchExperiment(b, "T2") }
func BenchmarkT3Epochs(b *testing.B)       { benchExperiment(b, "T3") }
func BenchmarkT4Augmentation(b *testing.B) { benchExperiment(b, "T4") }
func BenchmarkT5Distribute(b *testing.B)   { benchExperiment(b, "T5") }
func BenchmarkT6Solver(b *testing.B)       { benchExperiment(b, "T6") }
func BenchmarkT7DSSeqEDF(b *testing.B)     { benchExperiment(b, "T7") }
func BenchmarkT8Aggregate(b *testing.B)    { benchExperiment(b, "T8") }
func BenchmarkT9Throughput(b *testing.B)   { benchExperiment(b, "T9") }
func BenchmarkT10Punctualize(b *testing.B) { benchExperiment(b, "T10") }
func BenchmarkT11Lemma35(b *testing.B)     { benchExperiment(b, "T11") }
func BenchmarkT12Discretize(b *testing.B)  { benchExperiment(b, "T12") }
func BenchmarkT13Adversary(b *testing.B)   { benchExperiment(b, "T13") }

// Ablation benches (DESIGN.md §5).
func BenchmarkAblationReplication(b *testing.B)  { benchExperiment(b, "A1") }
func BenchmarkAblationSplit(b *testing.B)        { benchExperiment(b, "A2") }
func BenchmarkAblationThreshold(b *testing.B)    { benchExperiment(b, "A3") }
func BenchmarkAblationTimestampLag(b *testing.B) { benchExperiment(b, "A4") }
func BenchmarkAblationAdaptive(b *testing.B)     { benchExperiment(b, "A5") }

// — Micro-benchmarks of the hot paths —

// benchPolicyRun measures end-to-end simulation throughput for a policy on
// a fixed mid-size router trace; the per-op metric is one full run.
func benchPolicyRun(b *testing.B, mk func() sched.Policy, n int) {
	b.Helper()
	inst := workload.Router(3, 4, 8, 4096, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(inst, mk(), sched.Options{N: n}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(inst.TotalJobs()))
}

func BenchmarkEngineDLRUEDF(b *testing.B) {
	benchPolicyRun(b, func() sched.Policy { return core.NewDLRUEDF() }, 16)
}

func BenchmarkEngineDLRU(b *testing.B) {
	benchPolicyRun(b, func() sched.Policy { return policy.NewDLRU() }, 16)
}

func BenchmarkEngineEDF(b *testing.B) {
	benchPolicyRun(b, func() sched.Policy { return policy.NewEDF() }, 16)
}

func BenchmarkEngineNever(b *testing.B) {
	benchPolicyRun(b, func() sched.Policy { return policy.NewNever() }, 16)
}

func BenchmarkSolvePipeline(b *testing.B) {
	inst := workload.Router(3, 4, 8, 2048, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(inst.Clone(), 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParEDFLowerBound(b *testing.B) {
	inst := workload.Router(3, 4, 8, 4096, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offline.ParEDFDrops(inst, 2, 1)
	}
}

func BenchmarkBruteForceTiny(b *testing.B) {
	inst := workload.RandomSmall(5, 3, 2, 12, []int{1, 2, 4}, 3, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.BruteForce(inst.Clone(), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamStep measures a single steady-state Stream.Step — the
// per-round dataplane cost — with a given probe attached. With no probe
// (and with the value-only CounterSink) this path must not allocate; the
// benchmem column is the regression guard for that guarantee.
func benchStreamStep(b *testing.B, probe sched.Probe) {
	b.Helper()
	st, err := sched.NewStream(policy.NewStatic(0, 1), sched.StreamConfig{
		N: 2, Delta: 4, Delays: []int{2, 8}, Probe: probe,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Unsorted with a duplicate batch so Step also pays for normalization.
	req := sched.Request{{Color: 1, Count: 1}, {Color: 0, Count: 1}, {Color: 0, Count: 1}}
	for i := 0; i < 64; i++ { // reach steady state: buffers warm, pool bounded
		if _, err := st.Step(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Step(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamStepNoProbe(b *testing.B) { benchStreamStep(b, nil) }

// benchPolicyStep measures one steady-state Stream.Step for a real policy
// — the complete per-round cost including tracker bookkeeping, ranking
// sorts and cache maintenance, not just the engine shell that
// benchStreamStep (Static policy) isolates. The benchmem column must read
// 0 allocs/op; TestFullPolicyStepAllocFree pins the same contract.
func benchPolicyStep(b *testing.B, pol sched.Policy) {
	b.Helper()
	st, req := steadyStream(b, pol, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Step(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyStepDLRUEDF(b *testing.B) { benchPolicyStep(b, core.NewDLRUEDF()) }

func BenchmarkPolicyStepDLRU(b *testing.B) { benchPolicyStep(b, policy.NewDLRU()) }

func BenchmarkPolicyStepEDF(b *testing.B) { benchPolicyStep(b, policy.NewEDF()) }

// BenchmarkServedRound is the served round path in process: the
// `direct` workload's phase B without the wire, queue or allocator. As
// benchmark/ builds it, 64 router tenants (workload.Tenant, seed 1,
// 1024-round traces looped) run dlruedf at N = 8; each tenant applies
// its rounds 32 at a time, one phase-B frame, through Stream.Advance,
// the report-free step rrserved applies queued rounds with. One op is
// one tenant-round, so ns/op is the engine and policy cost rrserved
// pays per round it serves, and allocs/op must read 0.
func BenchmarkServedRound(b *testing.B) {
	const tenants, traceRounds, frame = 64, 1024, 32
	streams := make([]*sched.Stream, tenants)
	traces := make([][]sched.Request, tenants)
	for i := range streams {
		inst, err := workload.Tenant("router", workload.Params{Seed: 1, Rounds: traceRounds}, i)
		if err != nil {
			b.Fatal(err)
		}
		pol, err := serve.NewPolicy("dlruedf")
		if err != nil {
			b.Fatal(err)
		}
		if streams[i], err = sched.NewStream(pol, sched.StreamConfig{N: 8, Delta: inst.Delta, Delays: inst.Delays}); err != nil {
			b.Fatal(err)
		}
		traces[i] = inst.Requests
	}
	step := func(op int) {
		i := op / frame % tenants
		var req sched.Request
		if r := streams[i].Round() % traceRounds; r < len(traces[i]) {
			req = traces[i][r]
		}
		if err := streams[i].Advance(req); err != nil {
			b.Fatal(err)
		}
	}
	// One pass over every tenant's trace grows every scratch buffer.
	for op := 0; op < tenants*traceRounds; op++ {
		step(op)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		step(op)
	}
}

func BenchmarkStreamStepCounterSink(b *testing.B) { benchStreamStep(b, &sched.CounterSink{}) }

func BenchmarkStreamStepMetricsSink(b *testing.B) {
	benchStreamStep(b, sched.NewMetricsSink(8, 64))
}

// BenchmarkRunCounterSink is the full-run analogue: engine throughput with
// a counting probe attached, for comparison against BenchmarkEngineDLRUEDF.
func BenchmarkRunCounterSink(b *testing.B) {
	inst := workload.Router(3, 4, 8, 4096, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &sched.CounterSink{}
		if _, err := sched.Run(inst, core.NewDLRUEDF(), sched.Options{N: 16, Probe: sink}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(inst.TotalJobs()))
}

func BenchmarkScheduleReplay(b *testing.B) {
	inst := workload.Router(3, 4, 8, 2048, 12)
	res, err := sched.Run(inst.Clone(), core.NewDLRUEDF(), sched.Options{N: 16, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Replay(inst, res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateTransform(b *testing.B) {
	inst := workload.RandomBatched(9, 8, 3, 256, []int{2, 4, 8}, 1.2, 0.6, false)
	t, err := sched.Run(inst.Clone(), policy.NewSeqEDF(), sched.Options{N: 3, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := offline.Aggregate(inst.Clone(), t.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}
