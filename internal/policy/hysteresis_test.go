package policy

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/workload"
)

func TestHysteresisIgnoresSubThresholdBacklog(t *testing.T) {
	// Δ = 5, θ = 1: a backlog of 4 jobs never justifies a switch.
	inst := &sched.Instance{Delta: 5, Delays: []int{8}}
	inst.AddJobs(0, 0, 4)
	res, err := sched.Run(inst, NewHysteresis(1), sched.Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 0 || res.Dropped != 4 {
		t.Fatalf("sub-threshold backlog triggered work: %v", res)
	}
}

func TestHysteresisAdmitsPayingBacklog(t *testing.T) {
	inst := &sched.Instance{Delta: 3, Delays: []int{8}}
	inst.AddJobs(0, 0, 6)
	res, err := sched.Run(inst, NewHysteresis(1), sched.Options{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 6 || res.Reconfigs != 1 {
		t.Fatalf("paying backlog mishandled: %v", res)
	}
}

func TestHysteresisKeepsColorUntilRepaid(t *testing.T) {
	// Two colors alternate pressure; with hysteresis the policy must not
	// flip-flop every round the way GreedyPending does.
	inst := &sched.Instance{Delta: 4, Delays: []int{8, 8}}
	for r := 0; r < 32; r += 4 {
		inst.AddJobs(r, sched.Color((r/4)%2), 5)
	}
	hys, err := sched.Run(inst.Clone(), NewHysteresis(1), sched.Options{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := sched.Run(inst.Clone(), NewGreedyPending(), sched.Options{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hys.Reconfigs >= greedy.Reconfigs {
		t.Fatalf("hysteresis reconfigured %d ≥ greedy %d", hys.Reconfigs, greedy.Reconfigs)
	}
}

func TestHysteresisThetaDefaultsAndScaling(t *testing.T) {
	inst := workload.RandomBatched(13, 8, 4, 128, []int{2, 4, 8}, 0.9, 0.7, true)
	def, err := sched.Run(inst.Clone(), NewHysteresis(0), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	theta1, err := sched.Run(inst.Clone(), NewHysteresis(1), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if def.Cost != theta1.Cost {
		t.Fatalf("θ=0 should default to θ=1: %v vs %v", def.Cost, theta1.Cost)
	}
	strict, err := sched.Run(inst.Clone(), NewHysteresis(4), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Reconfigs > theta1.Reconfigs {
		t.Fatalf("higher θ reconfigured more: %d > %d", strict.Reconfigs, theta1.Reconfigs)
	}
}

func TestHysteresisConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomBatched(seed, 8, 3, 96, []int{1, 2, 4, 8}, 0.9, 0.7, true)
		res, err := sched.Run(inst, NewHysteresis(1), sched.Options{N: 6})
		if err != nil {
			return false
		}
		return res.Executed+res.Dropped == inst.TotalJobs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHysteresisRestoreRequiresEveryCredit: a snapshot carries one credit
// per cached color, so one that omits a cached color's credit is
// rejected rather than restored with that credit read as 0.
func TestHysteresisRestoreRequiresEveryCredit(t *testing.T) {
	env := sched.Env{N: 2, Speed: 1, Delta: 4, Delays: []int{8, 8, 8}}
	cache := NewCache(env.N, len(env.Delays), false)
	cache.Insert(2)
	blob := func(credits ...int) []byte {
		e := snap.NewEncoder()
		e.Int(hysteresisSnapVersion)
		e.Float64(1)
		cache.Snapshot(e)
		e.Int(len(credits))
		for _, v := range credits {
			e.Int(2)
			e.Int(v)
		}
		return e.Bytes()
	}
	restore := func(b []byte) error {
		h := NewHysteresis(1)
		h.Reset(env)
		return h.RestoreState(snap.NewDecoder(b), 0)
	}
	if err := restore(blob(3)); err != nil {
		t.Fatalf("restore with the cached color's credit: %v", err)
	}
	if err := restore(blob()); err == nil || !strings.Contains(err.Error(), "0 credit entries for 1 cached colors") {
		t.Fatalf("restore without it: %v, want a rejection", err)
	}
}
