package offline

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/workload"
)

// Property: the certified lower bound never exceeds the exact optimum —
// the core soundness property every ratio in EXPERIMENTS.md rests on.
func TestLowerBoundBelowOptimumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomSmall(seed, 3, 2, 10, []int{1, 2, 4}, 2, true)
		opt, err := BruteForce(inst.Clone(), 1, 1_500_000)
		var lim *BruteForceLimitError
		if errors.As(err, &lim) {
			return true
		}
		if err != nil {
			return false
		}
		return LowerBound(inst.Clone(), 1).Value() <= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundComponents(t *testing.T) {
	// 5 jobs of one color, Δ=3, loose deadlines, m=1: ParEDF drops 0, the
	// per-color bound is min(Δ, 5) = 3.
	inst := &sched.Instance{Delta: 3, Delays: []int{8}}
	inst.AddJobs(0, 0, 5)
	b := LowerBound(inst, 1)
	if b.ParEDFDrops != 0 {
		t.Fatalf("ParEDFDrops = %d", b.ParEDFDrops)
	}
	if b.ColorCost != 3 {
		t.Fatalf("ColorCost = %d, want 3", b.ColorCost)
	}
	if b.Value() != 3 {
		t.Fatalf("Value = %d", b.Value())
	}

	// A color with fewer jobs than Δ contributes its job count.
	inst2 := &sched.Instance{Delta: 10, Delays: []int{8, 8}}
	inst2.AddJobs(0, 0, 2)
	inst2.AddJobs(0, 1, 20)
	b2 := LowerBound(inst2, 1)
	if b2.ColorCost != 12 { // 2 + min(10, 20)
		t.Fatalf("ColorCost = %d, want 12", b2.ColorCost)
	}
}

func TestLowerBoundExactUsesBruteForce(t *testing.T) {
	inst := &sched.Instance{Delta: 2, Delays: []int{4}}
	inst.AddJobs(0, 0, 3)
	b := lowerBoundExact(inst, 1, ExactOptions{MaxStates: 1_000_000})
	if b.Exact < 0 {
		t.Fatal("Exact not computed on a tiny instance")
	}
	if b.Value() < b.Exact {
		t.Fatal("Value ignores Exact")
	}
	// Over-budget search leaves Exact at −1 without failing.
	big := workload.RandomBatched(2, 8, 2, 96, []int{1, 2, 4}, 0.9, 0.9, true)
	b2 := lowerBoundExact(big, 2, ExactOptions{MaxStates: 10})
	if b2.Exact != -1 {
		t.Fatalf("Exact = %d on an over-budget instance", b2.Exact)
	}
}

// TestBracketOPT: the bracket must contain the exact optimum on tiny
// instances and satisfy Lower ≤ Upper with a valid witness schedule.
func TestBracketOPT(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		inst := workload.RandomSmall(seed, 3, 2, 10, []int{1, 2, 4}, 2, true)
		br, err := BracketOPT(inst.Clone(), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if br.Lower > br.Upper {
			t.Fatalf("seed %d: bracket inverted: [%d, %d]", seed, br.Lower, br.Upper)
		}
		if br.Gap() < 1 {
			t.Fatalf("seed %d: gap %v < 1", seed, br.Gap())
		}
		opt, err := BruteForce(inst.Clone(), 1, 0)
		var lim *BruteForceLimitError
		if errors.As(err, &lim) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if opt < br.Lower || opt > br.Upper {
			t.Fatalf("seed %d: OPT %d outside bracket [%d, %d]", seed, opt, br.Lower, br.Upper)
		}
	}
}

// TestBracketOPTLargeInstance exercises the non-exact path.
func TestBracketOPTLargeInstance(t *testing.T) {
	inst := workload.RandomBatched(4, 10, 3, 128, []int{1, 2, 4, 8}, 0.9, 0.7, true)
	br, err := BracketOPT(inst, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if br.Lower > br.Upper {
		t.Fatalf("bracket inverted: [%d, %d]", br.Lower, br.Upper)
	}
	if br.UpperSchedule == nil {
		t.Fatal("missing witness schedule")
	}
}
