package offline

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// corpusInstance builds the i-th differential-corpus instance: tiny
// randomized instances covering batched/unbatched arrivals, 1–3 colors,
// mixed delay menus and reconfiguration costs.
func corpusInstance(i int) *sched.Instance {
	seed := uint64(i)
	switch i % 4 {
	case 0:
		return workload.RandomSmall(seed, 2, 2, 8, []int{1, 2}, 2, true)
	case 1:
		return workload.RandomSmall(seed, 3, 2, 10, []int{1, 2, 4}, 2, i%8 < 4)
	case 2:
		return workload.RandomSmall(seed, 2, 3, 12, []int{1, 2, 4}, 3, false)
	default:
		return workload.RandomSmall(seed, 3, 1, 9, []int{1, 3}, 2, true)
	}
}

// TestSolveExactDifferentialCorpus pins the branch-and-bound solver
// bit-identical to the legacy memoized DFS (ReferenceBruteForce, the
// executable specification) across ~500 randomized tiny instances for
// every m ∈ {1, 2, 3}.
func TestSolveExactDifferentialCorpus(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 120
	}
	solved := 0
	for i := 0; i < n; i++ {
		inst := corpusInstance(i)
		for m := 1; m <= 3; m++ {
			want, _, err := ReferenceBruteForce(inst, m, 4_000_000)
			var lim *BruteForceLimitError
			if errors.As(err, &lim) {
				continue // reference over budget: nothing to compare
			}
			if err != nil {
				t.Fatalf("corpus %d m=%d: reference: %v", i, m, err)
			}
			got, err := SolveExact(inst, m, ExactOptions{MaxStates: 8_000_000})
			if err != nil {
				t.Fatalf("corpus %d m=%d: SolveExact: %v", i, m, err)
			}
			if got != want {
				t.Fatalf("corpus %d m=%d: SolveExact = %d, reference = %d", i, m, got, want)
			}
			solved++
		}
	}
	if solved < 2*n {
		t.Fatalf("only %d corpus points solved by both solvers — corpus too hard to be meaningful", solved)
	}
}

// TestSolveExactDeterministicAcrossWorkers: the optimum must be
// bit-identical at every worker count (the incumbent race changes the
// exploration order, never the answer).
func TestSolveExactDeterministicAcrossWorkers(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for i := 0; i < seeds; i++ {
		inst := workload.RandomSmall(uint64(i), 3, 2, 14, []int{1, 2, 4}, 3, true)
		var want int64
		for wi, workers := range []int{1, 2, 3, 8} {
			got, err := SolveExact(inst, 2, ExactOptions{MaxStates: 8_000_000, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", i, workers, err)
			}
			if wi == 0 {
				want = got
			} else if got != want {
				t.Fatalf("seed %d: workers=%d gave %d, workers=1 gave %d", i, workers, got, want)
			}
		}
	}
}

// TestSolveExactSeededUpperBound: passing any achievable upper bound (even
// the exact optimum itself — the tightest possible seed) must not change
// the answer.
func TestSolveExactSeededUpperBound(t *testing.T) {
	for i := 0; i < 20; i++ {
		inst := workload.RandomSmall(uint64(i), 3, 2, 12, []int{1, 2, 4}, 2, true)
		opt, err := SolveExact(inst, 2, ExactOptions{MaxStates: 4_000_000})
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		for _, slack := range []int64{0, 1, 7} {
			got, err := SolveExact(inst, 2, ExactOptions{MaxStates: 4_000_000, UpperBound: opt + slack})
			if err != nil {
				t.Fatalf("seed %d slack %d: %v", i, slack, err)
			}
			if got != opt {
				t.Fatalf("seed %d: seeded with %d+%d gave %d, want %d", i, opt, slack, got, opt)
			}
		}
	}
}

// TestSolveExactDoesNotMutateCaller pins the PR 4 contract fix: the solver
// normalizes an internal clone, never the caller's instance.
func TestSolveExactDoesNotMutateCaller(t *testing.T) {
	inst := &sched.Instance{Delta: 2, Delays: []int{2, 4}}
	// Unnormalized on purpose: batches out of color order and split so
	// Normalize would merge them.
	inst.AddJobs(0, 1, 1)
	inst.AddJobs(0, 0, 1)
	inst.AddJobs(0, 0, 2)
	inst.AddJobs(1, 1, 1)
	before := inst.Clone()
	if _, err := BruteForce(inst, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inst, before) {
		t.Fatalf("BruteForce mutated its argument:\nbefore %+v\nafter  %+v", before, inst)
	}
	if _, _, err := ReferenceBruteForce(inst, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inst, before) {
		t.Fatalf("ReferenceBruteForce mutated its argument:\nbefore %+v\nafter  %+v", before, inst)
	}
}

// TestExactBetweenBounds: LowerBound.Value() ≤ OPT ≤ the local-search
// upper bound, on every instance where the exact search finishes.
func TestExactBetweenBounds(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	for i := 0; i < seeds; i++ {
		inst := workload.RandomSmall(uint64(i)+17, 3, 2, 12, []int{1, 2, 4}, 3, i%2 == 0)
		for _, m := range []int{1, 2} {
			opt, err := SolveExact(inst, m, ExactOptions{MaxStates: 4_000_000})
			var lim *BruteForceLimitError
			if errors.As(err, &lim) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d m=%d: %v", i, m, err)
			}
			if lb := LowerBound(inst.Clone(), m).Value(); lb > opt {
				t.Fatalf("seed %d m=%d: LowerBound %d > OPT %d", i, m, lb, opt)
			}
			br, err := BracketOPT(inst.Clone(), m, 2)
			if err != nil {
				t.Fatalf("seed %d m=%d: BracketOPT: %v", i, m, err)
			}
			if br.Lower > opt || opt > br.Upper {
				t.Fatalf("seed %d m=%d: bracket [%d, %d] misses OPT %d", i, m, br.Lower, br.Upper, opt)
			}
		}
	}
}

// TestSolveExactWideKeys exercises the non-default key encodings (the
// differential corpus is small enough that it lands entirely in the
// densest 16-bit-lane mode): instances that overflow a lane field must
// fall back to the 32-bit-lane or one-word-per-bucket layout and still
// match the reference exactly.
func TestSolveExactWideKeys(t *testing.T) {
	// Bucket count over 2^16 (a single batch of 70 000 jobs): wide mode.
	big := &sched.Instance{Delta: 2, Delays: []int{1, 2}}
	big.AddJobs(0, 0, 70_000)
	big.AddJobs(0, 1, 3)
	big.AddJobs(1, 1, 2)
	// Delay over 2^10 forces wide mode even with tiny counts.
	far := &sched.Instance{Delta: 2, Delays: []int{1, 2000}}
	far.AddJobs(0, 0, 2)
	far.AddJobs(0, 1, 3)
	far.AddJobs(1, 0, 1)
	far.AddJobs(2, 1, 2)
	// Delay over 2^5 but under 2^10: the 32-bit-lane (half-word) mode.
	mid := &sched.Instance{Delta: 2, Delays: []int{1, 40}}
	mid.AddJobs(0, 0, 2)
	mid.AddJobs(0, 1, 3)
	mid.AddJobs(1, 0, 1)
	mid.AddJobs(2, 1, 2)
	mid.AddJobs(3, 0, 2)
	// Bucket count over 2^8 but under 2^16: half-word mode too.
	cnt := &sched.Instance{Delta: 2, Delays: []int{1, 2}}
	cnt.AddJobs(0, 0, 300)
	cnt.AddJobs(0, 1, 3)
	cnt.AddJobs(1, 1, 2)
	cnt.AddJobs(2, 0, 1)
	wantMode := map[string]uint8{
		"bigCount": keyWide, "farDelay": keyWide,
		"midDelay": keyHalf, "midCount": keyHalf,
	}
	for name, inst := range map[string]*sched.Instance{"bigCount": big, "farDelay": far, "midDelay": mid, "midCount": cnt} {
		norm := inst.Clone()
		norm.Normalize()
		if got := newExactPrecomp(norm, 2).keyMode; got != wantMode[name] {
			t.Fatalf("%s: key mode %d, want %d — the instance no longer exercises the intended encoding", name, got, wantMode[name])
		}
		for m := 1; m <= 2; m++ {
			want, _, err := ReferenceBruteForce(inst, m, 4_000_000)
			if err != nil {
				t.Fatalf("%s m=%d: reference: %v", name, m, err)
			}
			got, err := SolveExact(inst, m, ExactOptions{MaxStates: 4_000_000})
			if err != nil {
				t.Fatalf("%s m=%d: SolveExact: %v", name, m, err)
			}
			if got != want {
				t.Fatalf("%s m=%d: SolveExact = %d, reference = %d", name, m, got, want)
			}
		}
	}
}

// TestBracketOPTResolvesExactBeyondLegacyBudget pins the PR 4 payoff:
// on the pinned medium benchmark family the pre-B&B 200k-state budget
// fell back to the loose certified bound (the search does not fit), while
// BracketOPT's new 2M budget resolves the exact optimum and closes the
// bracket to Lower == Upper.
func TestBracketOPTResolvesExactBeyondLegacyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a ~600k-state instance exactly")
	}
	inst := workload.RandomBatched(3, 8, 2, 80, []int{1, 2, 4, 8, 16}, 0.9, 0.9, true)
	const m = 2
	var lim *BruteForceLimitError
	if opt, err := SolveExact(inst, m, ExactOptions{MaxStates: 200_000}); !errors.As(err, &lim) {
		t.Fatalf("legacy 200k budget = (%d, %v), want a *BruteForceLimitError — instance no longer demonstrates the budget raise", opt, err)
	}
	br, err := BracketOPT(inst.Clone(), m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if br.Lower != br.Upper {
		t.Fatalf("bracket not closed: [%d, %d]", br.Lower, br.Upper)
	}
}

// TestSolveExactStatsReporting sanity-checks the stats surface the
// benchmarks rely on.
func TestSolveExactStatsReporting(t *testing.T) {
	// Hard enough that pruning cannot collapse the whole search (on easy
	// instances the seeded incumbent plus the suffix bounds legitimately
	// expand zero nodes).
	inst := workload.RandomBatched(2, 4, 2, 24, []int{1, 2, 4}, 0.8, 0.8, true)
	opt, st, err := SolveExactStats(inst, 2, ExactOptions{MaxStates: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if opt < 0 {
		t.Fatalf("negative optimum %d", opt)
	}
	if st.States <= 0 {
		t.Fatalf("no states counted: %+v", st)
	}
	if st.BoundPrunes <= 0 {
		t.Fatalf("no bound prunes on a hard instance: %+v", st)
	}
	if st.Tasks <= 0 || st.Workers <= 0 {
		t.Fatalf("missing root-split stats: %+v", st)
	}
}
