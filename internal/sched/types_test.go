package sched

import "testing"

func tinyInstance() *Instance {
	inst := &Instance{
		Name:   "tiny",
		Delta:  2,
		Delays: []int{2, 4},
	}
	inst.AddJobs(0, 0, 1)
	inst.AddJobs(0, 1, 3)
	inst.AddJobs(2, 0, 2)
	return inst
}

func TestInstanceCounters(t *testing.T) {
	inst := tinyInstance()
	if got := inst.NumColors(); got != 2 {
		t.Fatalf("NumColors = %d", got)
	}
	if got := inst.NumRounds(); got != 3 {
		t.Fatalf("NumRounds = %d", got)
	}
	if got := inst.MaxDelay(); got != 4 {
		t.Fatalf("MaxDelay = %d", got)
	}
	if got := inst.Horizon(); got != 7 {
		t.Fatalf("Horizon = %d", got)
	}
	if got := inst.TotalJobs(); got != 6 {
		t.Fatalf("TotalJobs = %d", got)
	}
	per := inst.JobsPerColor()
	if per[0] != 3 || per[1] != 3 {
		t.Fatalf("JobsPerColor = %v", per)
	}
}

func TestInstanceValidate(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Instance)
	}{
		{"zero delta", func(i *Instance) { i.Delta = 0 }},
		{"zero delay", func(i *Instance) { i.Delays[0] = 0 }},
		{"unknown color", func(i *Instance) { i.Requests[0] = append(i.Requests[0], Batch{Color: 9, Count: 1}) }},
		{"negative color", func(i *Instance) { i.Requests[0] = append(i.Requests[0], Batch{Color: -1, Count: 1}) }},
		{"non-positive count", func(i *Instance) { i.Requests[0] = append(i.Requests[0], Batch{Color: 0, Count: 0}) }},
		{"counts that overflow when merged", func(i *Instance) {
			i.Requests[1] = Request{{Color: 0, Count: 1 << 62}, {Color: 0, Count: 1 << 62}}
		}},
	}
	for _, tc := range cases {
		inst := tinyInstance()
		tc.mod(inst)
		if err := inst.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid instance", tc.name)
		}
		if _, err := Run(inst, &scripted{rows: [][]Color{{0, 1}}}, Options{N: 2}); err == nil {
			t.Errorf("%s: Run accepted an invalid instance", tc.name)
		}
	}
	if err := tinyInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestBatchedAndRateLimitedPredicates(t *testing.T) {
	inst := &Instance{Delta: 1, Delays: []int{2, 4}}
	inst.AddJobs(0, 0, 2)
	inst.AddJobs(4, 1, 4)
	if !inst.IsBatched() {
		t.Fatal("batched instance reported unbatched")
	}
	if !inst.IsRateLimited() {
		t.Fatal("rate-limited instance reported over rate")
	}
	over := inst.Clone()
	over.AddJobs(2, 0, 3) // batched (2 | 2) but over the rate limit (3 > 2)
	if !over.IsBatched() || over.IsRateLimited() {
		t.Fatal("rate-limit predicate wrong")
	}
	unbatched := inst.Clone()
	unbatched.AddJobs(1, 1, 1) // round 1 not a multiple of 4
	if unbatched.IsBatched() || unbatched.IsRateLimited() {
		t.Fatal("unbatched instance reported batched")
	}
}

func TestHasPowerOfTwoDelays(t *testing.T) {
	a := &Instance{Delta: 1, Delays: []int{1, 2, 8, 64}}
	if !a.HasPowerOfTwoDelays() {
		t.Fatal("powers of two rejected")
	}
	b := &Instance{Delta: 1, Delays: []int{1, 3}}
	if b.HasPowerOfTwoDelays() {
		t.Fatal("3 accepted as power of two")
	}
}

func TestNormalizeMergesAndSorts(t *testing.T) {
	inst := &Instance{Delta: 1, Delays: []int{1, 1, 1}}
	inst.Requests = []Request{{
		{Color: 2, Count: 1},
		{Color: 0, Count: 2},
		{Color: 2, Count: 3},
	}}
	inst.Normalize()
	r := inst.Requests[0]
	if len(r) != 2 {
		t.Fatalf("Normalize left %d batches", len(r))
	}
	if r[0] != (Batch{Color: 0, Count: 2}) || r[1] != (Batch{Color: 2, Count: 4}) {
		t.Fatalf("Normalize produced %v", r)
	}
	if inst.TotalJobs() != 6 {
		t.Fatalf("Normalize changed job count: %d", inst.TotalJobs())
	}
}

func TestCloneIsDeep(t *testing.T) {
	inst := tinyInstance()
	c := inst.Clone()
	c.Delays[0] = 99
	c.Requests[0][0].Count = 99
	if inst.Delays[0] == 99 || inst.Requests[0][0].Count == 99 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestPowerOfTwoHelpers(t *testing.T) {
	cases := []struct{ v, atMost int }{
		{1, 1}, {2, 2}, {3, 2}, {5, 4}, {64, 64}, {100, 64},
	}
	for _, c := range cases {
		if got := PowerOfTwoAtMost(c.v); got != c.atMost {
			t.Errorf("PowerOfTwoAtMost(%d) = %d, want %d", c.v, got, c.atMost)
		}
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Reconfig: 3, Drop: 4}
	b := Cost{Reconfig: 1, Drop: 2}
	if a.Total() != 7 {
		t.Fatalf("Total = %d", a.Total())
	}
	s := a.Add(b)
	if s.Reconfig != 4 || s.Drop != 6 {
		t.Fatalf("Add = %+v", s)
	}
}

func TestRequestJobs(t *testing.T) {
	r := Request{{Color: 0, Count: 2}, {Color: 1, Count: 5}}
	if r.Jobs() != 7 {
		t.Fatalf("Jobs = %d", r.Jobs())
	}
	var empty Request
	if empty.Jobs() != 0 {
		t.Fatal("empty request has jobs")
	}
}
