package core

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestDLRUEDFRequiresMultipleOfFour(t *testing.T) {
	inst := &sched.Instance{Delta: 1, Delays: []int{1}}
	inst.AddJobs(0, 0, 1)
	res, err := sched.Run(inst, NewDLRUEDF(), sched.Options{N: 6})
	var ce *sched.ConfigError
	if !errors.As(err, &ce) || ce.Field != "N" || ce.Value != 6 {
		t.Fatalf("Run at n=6 = (%v, %v), want a *sched.ConfigError for N = 6", res, err)
	}
}

// TestReplicationInvariant checks §3.1's invariant on every recorded
// mini-round: each cached color occupies exactly two locations and at
// most n/2 distinct colors are cached.
func TestReplicationInvariant(t *testing.T) {
	inst := workload.RandomBatched(3, 12, 3, 128, []int{1, 2, 4, 8}, 0.9, 0.7, true)
	res, err := sched.Run(inst, NewDLRUEDF(), sched.Options{N: 8, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range res.Schedule.Assign {
		count := map[sched.Color]int{}
		for _, c := range row {
			if c != sched.NoColor {
				count[c]++
			}
		}
		if len(count) > 4 {
			t.Fatalf("round %d: %d distinct colors cached, capacity 4", r, len(count))
		}
		for c, n := range count {
			if n != 2 {
				t.Fatalf("round %d: color %d cached in %d locations, want 2", r, c, n)
			}
		}
	}
}

// TestSurvivesAppendixA: unlike ΔLRU, the combined algorithm executes the
// long-delay backlog of the Appendix A construction.
func TestSurvivesAppendixA(t *testing.T) {
	inst, err := workload.AppendixA(8, 2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	long := workload.AppendixALongColor(8)
	res, err := sched.Run(inst, NewDLRUEDF(), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.DropsByColor[long] != 0 {
		t.Fatalf("ΔLRU-EDF dropped %d long jobs on Appendix A", res.DropsByColor[long])
	}
}

// TestBeatsEDFOnAppendixB: the combined algorithm pays no more
// reconfiguration than pure EDF on the thrashing construction.
func TestBeatsEDFOnAppendixB(t *testing.T) {
	inst, err := workload.AppendixB(8, 9, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	edf, err := sched.Run(inst.Clone(), policy.NewEDF(), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	combo, err := sched.Run(inst.Clone(), NewDLRUEDF(), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if combo.Cost.Total() > edf.Cost.Total() {
		t.Fatalf("ΔLRU-EDF (%d) worse than EDF (%d) on Appendix B", combo.Cost.Total(), edf.Cost.Total())
	}
}

// TestDropClassificationSumsToTotal: eligible + ineligible drops equal the
// engine's drop count.
func TestDropClassificationSumsToTotal(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomBatched(seed, 10, 4, 96, []int{1, 2, 4, 8}, 0.8, 0.6, true)
		pol := NewDLRUEDF()
		res, err := sched.Run(inst, pol, sched.Options{N: 8})
		if err != nil {
			return false
		}
		return pol.EligibleDrops()+pol.IneligibleDrops() == int64(res.Dropped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochLemmasProperty: Lemma 3.3 (reconfig ≤ 4·epochs·Δ) and Lemma
// 3.4 (ineligible drops ≤ epochs·Δ) hold on arbitrary rate-limited
// batched inputs.
func TestEpochLemmasProperty(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomBatched(seed, 12, 3, 128, []int{1, 2, 4, 8, 16}, 0.9, 0.6, true)
		pol := NewDLRUEDF()
		res, err := sched.Run(inst, pol, sched.Options{N: 16})
		if err != nil {
			return false
		}
		epochs := pol.Tracker().NumEpochs()
		if res.Cost.Reconfig > int64(4*epochs*inst.Delta) {
			return false
		}
		return pol.IneligibleDrops() <= int64(epochs*inst.Delta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUShareExtremes(t *testing.T) {
	inst := workload.RandomBatched(5, 8, 3, 64, []int{1, 2, 4}, 0.8, 0.7, true)
	for _, share := range []float64{0, 0.25, 0.5, 0.75, 1} {
		res, err := sched.Run(inst.Clone(), NewDLRUEDF(WithLRUShare(share)), sched.Options{N: 8})
		if err != nil {
			t.Fatalf("share %v: %v", share, err)
		}
		if res.Executed+res.Dropped != inst.TotalJobs() {
			t.Fatalf("share %v: conservation broken", share)
		}
	}
}

func TestWithoutReplicationUsesAllSlots(t *testing.T) {
	inst := workload.RandomBatched(6, 12, 2, 64, []int{1, 2, 4}, 0.9, 0.8, true)
	res, err := sched.Run(inst, NewDLRUEDF(WithoutReplication()), sched.Options{N: 8, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	maxDistinct := 0
	for _, row := range res.Schedule.Assign {
		seen := map[sched.Color]bool{}
		for _, c := range row {
			if c != sched.NoColor {
				seen[c] = true
			}
		}
		if len(seen) > maxDistinct {
			maxDistinct = len(seen)
		}
	}
	if maxDistinct <= 4 {
		t.Fatalf("no-replication variant never cached more than %d distinct colors", maxDistinct)
	}
}

func TestTimestampRecordingEnablesSuperEpochs(t *testing.T) {
	inst := workload.RandomBatched(7, 12, 2, 128, []int{2, 4, 8}, 0.9, 0.8, true)
	pol := NewDLRUEDF(WithTimestampRecording())
	if _, err := sched.Run(inst, pol, sched.Options{N: 8}); err != nil {
		t.Fatal(err)
	}
	if len(pol.Tracker().TsEventLog()) == 0 {
		t.Fatal("no timestamp events recorded")
	}
	if pol.Tracker().SuperEpochs(2) < 1 {
		t.Fatal("expected at least one complete super-epoch")
	}
}

// TestCachedSubsetOfEligible: the recorded schedule never configures a
// color that has not yet received Δ jobs (a necessary condition for
// eligibility).
func TestCachedSubsetOfEligible(t *testing.T) {
	delta := 4
	inst := workload.RandomBatched(8, 10, delta, 128, []int{1, 2, 4, 8}, 0.8, 0.6, true)
	res, err := sched.Run(inst, NewDLRUEDF(), sched.Options{N: 8, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	cum := make([]int, inst.NumColors())
	for r, row := range res.Schedule.Assign {
		if r < inst.NumRounds() {
			for _, b := range inst.Requests[r] {
				cum[b.Color] += b.Count
			}
		}
		for _, c := range row {
			if c != sched.NoColor && cum[c] < delta {
				t.Fatalf("round %d: configured color %d with only %d < Δ arrivals", r, c, cum[c])
			}
		}
	}
}
