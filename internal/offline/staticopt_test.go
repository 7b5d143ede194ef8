package offline

import (
	"testing"

	"repro/internal/sched"
)

func TestBestStaticColorsByVolume(t *testing.T) {
	inst := &sched.Instance{Delta: 1, Delays: []int{4, 4, 4}}
	inst.AddJobs(0, 0, 1)
	inst.AddJobs(0, 1, 5)
	inst.AddJobs(0, 2, 3)
	got := BestStaticColors(inst, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("BestStaticColors = %v, want [1 2]", got)
	}
	// Colors with zero jobs are never picked.
	inst2 := &sched.Instance{Delta: 1, Delays: []int{4, 4}}
	inst2.AddJobs(0, 1, 1)
	got2 := BestStaticColors(inst2, 2)
	if len(got2) != 1 || got2[0] != 1 {
		t.Fatalf("BestStaticColors = %v, want [1]", got2)
	}
}

func TestStaticCostMatchesRun(t *testing.T) {
	inst := &sched.Instance{Delta: 2, Delays: []int{4}}
	inst.AddJobs(0, 0, 3)
	res, err := StaticCost(inst, []sched.Color{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total() != 2 || res.Executed != 3 {
		t.Fatalf("StaticCost = %v", res)
	}
}
