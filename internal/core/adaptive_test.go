package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestAdaptiveShareStaysInBounds(t *testing.T) {
	inst := workload.Router(19, 4, 8, 1024, 10)
	pol := NewDLRUEDF(WithAdaptiveSplit())
	if _, err := sched.Run(inst, pol, sched.Options{N: 16}); err != nil {
		t.Fatal(err)
	}
	share := pol.lruShare
	if share < 0.25-1e-9 || share > 0.75+1e-9 {
		t.Fatalf("adaptive share %v left [0.25, 0.75]", share)
	}
}

func TestAdaptiveControllerDirections(t *testing.T) {
	a := &adaptiveState{step: 0.02, minShare: 0.25, maxShare: 0.75, decay: 0.9}
	// Persistent reconfiguration pressure raises the share to its cap.
	share := 0.5
	for i := 0; i < 200; i++ {
		share = a.observe(share, 10, 0)
	}
	if share != 0.75 {
		t.Fatalf("reconfig pressure: share = %v, want 0.75", share)
	}
	// Persistent drop pressure lowers it to the floor.
	b := &adaptiveState{step: 0.02, minShare: 0.25, maxShare: 0.75, decay: 0.9}
	share = 0.5
	for i := 0; i < 200; i++ {
		share = b.observe(share, 0, 10)
	}
	if share != 0.25 {
		t.Fatalf("drop pressure: share = %v, want 0.25", share)
	}
	// Balanced costs leave the share alone.
	c := &adaptiveState{step: 0.02, minShare: 0.25, maxShare: 0.75, decay: 0.9}
	share = 0.5
	for i := 0; i < 200; i++ {
		share = c.observe(share, 5, 5)
	}
	if share != 0.5 {
		t.Fatalf("balanced pressure moved the share to %v", share)
	}
}

func TestAdaptiveConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		inst := workload.RandomBatched(seed, 12, 4, 96, []int{1, 2, 4, 8}, 0.9, 0.7, true)
		pol := NewDLRUEDF(WithAdaptiveSplit())
		res, err := sched.Run(inst, pol, sched.Options{N: 8})
		if err != nil {
			return false
		}
		if res.Executed+res.Dropped != inst.TotalJobs() {
			return false
		}
		// Quota bookkeeping must stay consistent with the capacity.
		return pol.lruQuota+pol.edfQuota == pol.cache.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedShareUnaffectedByAdaptTick(t *testing.T) {
	// Without the option, adaptTick must be a no-op: two identical runs —
	// one fresh policy per run — give identical costs, and the share
	// never moves.
	inst := workload.Router(5, 2, 4, 256, 4)
	pol := NewDLRUEDF()
	res1, err := sched.Run(inst.Clone(), pol, sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pol.lruShare != 0.5 {
		t.Fatalf("fixed share moved to %v", pol.lruShare)
	}
	res2, err := sched.Run(inst.Clone(), NewDLRUEDF(), sched.Options{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cost != res2.Cost {
		t.Fatalf("fixed policy not deterministic: %v vs %v", res1.Cost, res2.Cost)
	}
}
