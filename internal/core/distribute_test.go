package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestBuildDistributedRejectsUnbatched(t *testing.T) {
	inst := &sched.Instance{Delta: 1, Delays: []int{4}}
	inst.AddJobs(1, 0, 1) // round 1 is not a multiple of 4
	if _, _, err := BuildDistributed(inst); err == nil {
		t.Fatal("unbatched instance accepted")
	}
}

func TestBuildDistributedSplitsBatches(t *testing.T) {
	inst := &sched.Instance{Delta: 2, Delays: []int{4}}
	inst.AddJobs(0, 0, 10) // 10 jobs, D=4 → virtual colors (0,0)=4, (0,1)=4, (0,2)=2
	virtual, m, err := BuildDistributed(inst)
	if err != nil {
		t.Fatal(err)
	}
	if virtual.NumColors() != 3 {
		t.Fatalf("%d virtual colors, want 3", virtual.NumColors())
	}
	if !virtual.IsRateLimited() {
		t.Fatal("distributed instance not rate-limited")
	}
	if virtual.TotalJobs() != inst.TotalJobs() {
		t.Fatalf("job count changed: %d → %d", inst.TotalJobs(), virtual.TotalJobs())
	}
	per := virtual.JobsPerColor()
	want := []int{4, 4, 2}
	for j, w := range want {
		if per[m.Virtual(0, j)] != w {
			t.Fatalf("virtual color (0,%d) has %d jobs, want %d", j, per[m.Virtual(0, j)], w)
		}
	}
	// Mapping roundtrip and delay preservation.
	for v := sched.Color(0); int(v) < virtual.NumColors(); v++ {
		if m.ToOriginal(v) != 0 {
			t.Fatalf("ToOriginal(%d) = %d", v, m.ToOriginal(v))
		}
		if virtual.Delays[v] != 4 {
			t.Fatalf("virtual delay = %d", virtual.Delays[v])
		}
	}
}

func TestBuildDistributedWidthIsMaxOverRounds(t *testing.T) {
	inst := &sched.Instance{Delta: 1, Delays: []int{2, 2}}
	inst.AddJobs(0, 0, 5) // ⌈5/2⌉ = 3 virtual colors
	inst.AddJobs(2, 0, 1) // smaller batch later
	inst.AddJobs(0, 1, 2) // 1 virtual color
	virtual, _, err := BuildDistributed(inst)
	if err != nil {
		t.Fatal(err)
	}
	if virtual.NumColors() != 4 {
		t.Fatalf("%d virtual colors, want 4", virtual.NumColors())
	}
	if virtual.TotalJobs() != 8 {
		t.Fatalf("TotalJobs = %d", virtual.TotalJobs())
	}
}

// Property (Lemma 4.2): the mapped schedule costs no more than the virtual
// one, and job conservation holds end to end.
func TestDistributeLemma42Property(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomBatched(seed, 6, 3, 64, []int{2, 4, 8}, 2.0, 0.6, false)
		if inst.TotalJobs() == 0 {
			return true
		}
		run, err := DistributeWith(inst, 8, NewDLRUEDF())
		if err != nil {
			return false
		}
		if run.Result.Cost.Total() > run.VirtualResult.Cost.Total() {
			return false
		}
		return run.Result.Executed+run.Result.Dropped == inst.TotalJobs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeOnAlreadyRateLimitedIsFaithful(t *testing.T) {
	// On a rate-limited instance, the transformation is a relabeling of
	// colors: each batch fits one virtual color, so the job volume per
	// (round, original color) is identical.
	inst := workload.RandomBatched(9, 6, 3, 64, []int{2, 4, 8}, 0.8, 0.6, true)
	virtual, m, err := BuildDistributed(inst)
	if err != nil {
		t.Fatal(err)
	}
	for r := range inst.Requests {
		orig := map[sched.Color]int{}
		for _, b := range inst.Requests[r] {
			orig[b.Color] += b.Count
		}
		mapped := map[sched.Color]int{}
		for _, b := range virtual.Requests[r] {
			mapped[m.ToOriginal(b.Color)] += b.Count
		}
		for c, n := range orig {
			if mapped[c] != n {
				t.Fatalf("round %d color %d: %d jobs became %d", r, c, n, mapped[c])
			}
		}
	}
}

func TestDistributeEndToEnd(t *testing.T) {
	inst := workload.RandomBatched(12, 8, 3, 128, []int{2, 4, 8}, 2.0, 0.5, false)
	res, err := Distribute(inst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed+res.Dropped != inst.TotalJobs() {
		t.Fatalf("conservation: %d + %d != %d", res.Executed, res.Dropped, inst.TotalJobs())
	}
}
