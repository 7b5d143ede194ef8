package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/offline"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workload"
)

// DefaultSuite is the fixed benchmark set behind `rrbench -json`: the
// hot paths whose numbers docs/PERFORMANCE.md tracks. Every spec is
// deterministic (fixed seeds), so two runs on the same machine differ
// only by timing noise — which is exactly what -compare's threshold
// absorbs.
func DefaultSuite() []Spec {
	return []Spec{
		fullRunSpec("run/dlruedf/router4096", func() sched.Policy { return core.NewDLRUEDF() }),
		fullRunSpec("run/dlru/router4096", func() sched.Policy { return policy.NewDLRU() }),
		fullRunSpec("run/edf/router4096", func() sched.Policy { return policy.NewEDF() }),
		stepSpec("step/dlruedf", func() sched.Policy { return core.NewDLRUEDF() }),
		stepSpec("step/dlru", func() sched.Policy { return policy.NewDLRU() }),
		stepSpec("step/edf", func() sched.Policy { return policy.NewEDF() }),
		sweepSpec("sweep/dlruedf/16x256/serial", 1),
		sweepSpec("sweep/dlruedf/16x256/parallel", 0),
		exactSpec("exact/bb/small", smallExactInstance, false),
		exactSpec("exact/ref/small", smallExactInstance, true),
		bracketSpec("exact/bracket/small", smallExactInstance),
	}
}

// ExactOPTSuite is the heavyweight exact-solver set behind `rrbench -json
// -exact`: the branch-and-bound solver and the legacy reference DFS on
// the pinned medium instance (≈380k expanded states; the reference needs
// tens of seconds per op). BENCH_pr4.json records both, and the ratio of
// their states_per_sec entries is the solver speedup docs/PERFORMANCE.md
// quotes. Kept out of DefaultSuite so `make benchsmoke` stays fast.
func ExactOPTSuite() []Spec {
	return []Spec{
		exactSpec("exact/bb/medium", mediumExactInstance, false),
		exactSpec("exact/ref/medium", mediumExactInstance, true),
	}
}

// smallExactInstance is a batched 4-color instance the legacy reference
// solver still handles in well under a second — small enough for the
// default suite, hard enough that pruning cannot collapse the search.
func smallExactInstance() (*sched.Instance, int) {
	return workload.RandomBatched(2, 4, 2, 24, []int{1, 2, 4}, 0.8, 0.8, true), 2
}

// mediumExactInstance is the pinned medium instance of the exact-solver
// performance claim (docs/PERFORMANCE.md): 8 colors, delay menu
// {1,2,4,8,16}, 80 rounds, m=2 — ≈610k expanded states, beyond the
// pre-PR-4 200k-state BracketOPT budget but within the new 2M one.
// internal/offline's BenchmarkBruteForceMedium uses the same shape;
// change both together.
func mediumExactInstance() (*sched.Instance, int) {
	return workload.RandomBatched(3, 8, 2, 80, []int{1, 2, 4, 8, 16}, 0.9, 0.9, true), 2
}

// exactSpec measures one exact solve per op — the branch-and-bound
// solver or the legacy reference DFS — on a fixed instance, with the
// expanded-state count as the rate denominator. Both solvers count only
// memo misses as states and agree on the state space, so their
// states_per_sec compare directly.
func exactSpec(name string, mk func() (*sched.Instance, int), reference bool) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		inst, m := mk()
		var states int
		var op func() error
		if reference {
			_, n, err := offline.ReferenceBruteForce(inst, m, 16_000_000)
			if err != nil {
				panic(fmt.Sprintf("bench: %s probe solve: %v", name, err))
			}
			states = n
			op = func() error {
				_, _, err := offline.ReferenceBruteForce(inst, m, 16_000_000)
				return err
			}
		} else {
			_, st, err := offline.SolveExactStats(inst, m, offline.ExactOptions{MaxStates: 16_000_000})
			if err != nil {
				panic(fmt.Sprintf("bench: %s probe solve: %v", name, err))
			}
			states = int(st.States)
			op = func() error {
				_, err := offline.SolveExact(inst, m, offline.ExactOptions{MaxStates: 16_000_000})
				return err
			}
		}
		return op, Rates{States: states}
	}}
}

// bracketSpec measures a full BracketOPT — static seed, local search,
// then the seeded exact search — the composite operation experiments
// call per instance.
func bracketSpec(name string, mk func() (*sched.Instance, int)) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		inst, m := mk()
		op := func() error {
			_, err := offline.BracketOPT(inst, m, 2)
			return err
		}
		return op, Rates{Rounds: inst.NumRounds(), Jobs: inst.TotalJobs()}
	}}
}

// fullRunSpec measures a complete sched.Run of a policy over a fixed
// mid-size router trace (the same one bench_test.go's Engine benchmarks
// use), yielding meaningful rounds/s and jobs/s rates.
func fullRunSpec(name string, mk func() sched.Policy) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		inst := workload.Router(3, 4, 8, 4096, 12)
		probe, err := sched.Run(inst, mk(), sched.Options{N: 16})
		if err != nil {
			panic(fmt.Sprintf("bench: %s probe run: %v", name, err))
		}
		op := func() error {
			_, err := sched.Run(inst, mk(), sched.Options{N: 16})
			return err
		}
		return op, Rates{Rounds: probe.Rounds, Jobs: inst.TotalJobs()}
	}}
}

// stepSpec measures one steady-state Stream.Step for a policy — the full
// per-round dataplane cost. The stream is warmed before measurement so
// the op exercises the zero-allocation contract (allocs_per_op must stay
// 0; -compare flags any growth).
func stepSpec(name string, mk func() sched.Policy) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		st, err := sched.NewStream(mk(), sched.StreamConfig{
			N: 16, Delta: 4, Delays: []int{2, 8, 4, 16, 2, 8, 4, 16},
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", name, err))
		}
		// Unsorted request with a duplicate batch so every Step pays for
		// normalization too; same shape as the alloc-pinning tests.
		req := sched.Request{
			{Color: 5, Count: 2}, {Color: 1, Count: 1}, {Color: 3, Count: 2},
			{Color: 1, Count: 1}, {Color: 7, Count: 2},
		}
		jobs := 0
		for _, b := range req {
			jobs += b.Count
		}
		for i := 0; i < 512; i++ { // steady state: warm buffers, bounded pool
			if _, err := st.Step(req); err != nil {
				panic(fmt.Sprintf("bench: %s warm-up: %v", name, err))
			}
		}
		op := func() error {
			_, err := st.Step(req)
			return err
		}
		return op, Rates{Rounds: 1, Jobs: jobs}
	}}
}

// sweepSpec measures the sharded sweep runner end to end: 16 independent
// ΔLRU-EDF simulations of 256 rounds each. workers 0 means GOMAXPROCS,
// so serial vs parallel quantifies the runner's scaling on this host
// (≈1.0 on a single-core machine — see docs/PERFORMANCE.md).
func sweepSpec(name string, workers int) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		seeds := make([]uint64, 16)
		for i := range seeds {
			seeds[i] = 900 + uint64(i)
		}
		rounds, jobs := 0, 0
		for _, seed := range seeds {
			in := workload.Router(seed, 4, 8, 256, 12)
			r, err := sched.Run(in, core.NewDLRUEDF(), sched.Options{N: 16})
			if err != nil {
				panic(fmt.Sprintf("bench: %s probe run: %v", name, err))
			}
			rounds += r.Rounds
			jobs += in.TotalJobs()
		}
		op := func() error {
			_, err := exp.Sweep(workers, seeds, func(seed uint64) (int64, error) {
				in := workload.Router(seed, 4, 8, 256, 12)
				r, err := sched.Run(in, core.NewDLRUEDF(), sched.Options{N: 16})
				if err != nil {
					return 0, err
				}
				return r.Cost.Total(), nil
			})
			return err
		}
		return op, Rates{Rounds: rounds, Jobs: jobs}
	}}
}
