package offline

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// The two pinned solver benchmark instances, whose states/s numbers
// docs/PERFORMANCE.md quotes.
//
// Small: the legacy reference still solves it in well under a second.
// Medium: ≈610k expanded states — beyond the pre-PR-4 200k-state
// BracketOPT budget (within the new 2M one), the instance behind the
// "≥10× states/sec" claim in docs/PERFORMANCE.md.
func benchSmallInstance() (*sched.Instance, int) {
	return workload.RandomBatched(2, 4, 2, 24, []int{1, 2, 4}, 0.8, 0.8, true), 2
}

func benchMediumInstance() (*sched.Instance, int) {
	return workload.RandomBatched(3, 8, 2, 80, []int{1, 2, 4, 8, 16}, 0.9, 0.9, true), 2
}

// benchSolve measures the branch-and-bound solver, reporting expanded
// states per second (memo misses only — the same counting rule the
// legacy solver uses, so the reference benchmarks' rates compare
// directly).
func benchSolve(b *testing.B, mk func() (*sched.Instance, int)) {
	inst, m := mk()
	var states int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := SolveExactStats(inst, m, ExactOptions{MaxStates: 16_000_000, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		states += st.States
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

func benchReference(b *testing.B, mk func() (*sched.Instance, int)) {
	inst, m := mk()
	var states int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, err := ReferenceBruteForce(inst, m, 16_000_000)
		if err != nil {
			b.Fatal(err)
		}
		states += int64(n)
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

func BenchmarkBruteForceSmall(b *testing.B)  { benchSolve(b, benchSmallInstance) }
func BenchmarkBruteForceMedium(b *testing.B) { benchSolve(b, benchMediumInstance) }

func BenchmarkBruteForceReferenceSmall(b *testing.B)  { benchReference(b, benchSmallInstance) }
func BenchmarkBruteForceReferenceMedium(b *testing.B) { benchReference(b, benchMediumInstance) }

// BenchmarkBracketOPT measures the full bracket pipeline — static seed,
// local search, then the exact search with the seeded incumbent — on the
// small instance, where the 2M-state budget resolves Exact.
func BenchmarkBracketOPT(b *testing.B) {
	inst, m := benchSmallInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BracketOPT(inst, m, 2); err != nil {
			b.Fatal(err)
		}
	}
}
