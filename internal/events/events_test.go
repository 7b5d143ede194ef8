package events

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

func TestPoissonSourceRate(t *testing.T) {
	src := NewPoissonSource(1, 0, 2.0, 10_000)
	evs, err := Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(evs)) / 10_000
	if math.Abs(got-2.0) > 0.1 {
		t.Fatalf("Poisson(2.0) produced rate %v", got)
	}
	// Time-ordered and within horizon.
	prev := 0.0
	for _, e := range evs {
		if e.Time < prev || e.Time >= 10_000 {
			t.Fatalf("event out of order or range: %v after %v", e.Time, prev)
		}
		prev = e.Time
	}
}

func TestPoissonSourceDeterministic(t *testing.T) {
	a, _ := Collect(NewPoissonSource(7, 0, 1, 100), 0)
	b, _ := Collect(NewPoissonSource(7, 0, 1, 100), 0)
	if len(a) != len(b) {
		t.Fatal("same seed, different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestOnOffSourceBursts(t *testing.T) {
	// Rate 10 while on, on-mean 10, off-mean 90: long-run rate ≈ 1.
	src := NewOnOffSource(3, 1, 10, 10, 90, 20_000)
	evs, err := Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(evs)) / 20_000
	if got < 0.6 || got > 1.6 {
		t.Fatalf("on/off long-run rate %v, want ≈ 1", got)
	}
	// There must be long silent stretches (off periods).
	maxGap := 0.0
	for i := 1; i < len(evs); i++ {
		if g := evs[i].Time - evs[i-1].Time; g > maxGap {
			maxGap = g
		}
	}
	if maxGap < 30 {
		t.Fatalf("no off-period visible: max gap %v", maxGap)
	}
	// Ordered.
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("events out of order")
		}
	}
}

// listSource replays a fixed event list, already in time order.
type listSource []Event

func (s *listSource) Next() (Event, bool) {
	if len(*s) == 0 {
		return Event{}, false
	}
	e := (*s)[0]
	*s = (*s)[1:]
	return e, true
}

func TestMergeInterleavesInTimeOrder(t *testing.T) {
	a := &listSource{{1, 0}, {4, 0}, {9, 0}}
	b := &listSource{{2, 1}, {3, 1}, {10, 1}}
	merged, err := Collect(Merge(a, b), 0)
	if err != nil {
		t.Fatal(err)
	}
	wantTimes := []float64{1, 2, 3, 4, 9, 10}
	if len(merged) != len(wantTimes) {
		t.Fatalf("merged %d events", len(merged))
	}
	for i, w := range wantTimes {
		if merged[i].Time != w {
			t.Fatalf("merged[%d].Time = %v, want %v", i, merged[i].Time, w)
		}
	}
}

func TestMergeTieBreakDeterministic(t *testing.T) {
	a := &listSource{{5, 0}}
	b := &listSource{{5, 1}}
	m1, _ := Collect(Merge(a, b), 0)
	a2 := &listSource{{5, 0}}
	b2 := &listSource{{5, 1}}
	m2, _ := Collect(Merge(a2, b2), 0)
	if m1[0] != m2[0] || m1[1] != m2[1] {
		t.Fatal("tie-break not deterministic")
	}
	if m1[0].Color != 0 {
		t.Fatalf("tie should favor the earlier source, got color %d first", m1[0].Color)
	}
}

func TestDiscretize(t *testing.T) {
	evs := []Event{{0.1, 0}, {0.9, 0}, {1.0, 1}, {2.49, 0}, {2.51, 1}}
	inst, err := Discretize(evs, 1.0, 3, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if inst.TotalJobs() != 5 {
		t.Fatalf("TotalJobs = %d", inst.TotalJobs())
	}
	// Round 0: two color-0 jobs; round 1: one color-1; round 2: one each.
	if inst.Requests[0].Jobs() != 2 || inst.Requests[1].Jobs() != 1 || inst.Requests[2].Jobs() != 2 {
		t.Fatalf("bucketing wrong: %v", inst.Requests)
	}
	// Finer rounds spread the same events over more rounds.
	fine, err := Discretize(evs, 0.5, 3, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fine.NumRounds() <= inst.NumRounds() {
		t.Fatalf("finer discretization has %d rounds vs %d", fine.NumRounds(), inst.NumRounds())
	}
}

func TestDiscretizeRejectsBadInput(t *testing.T) {
	if _, err := Discretize([]Event{{1, 0}}, 0, 1, []int{1}); err == nil {
		t.Fatal("zero round duration accepted")
	}
	if _, err := Discretize([]Event{{2, 0}, {1, 0}}, 1, 1, []int{1}); err == nil {
		t.Fatal("unordered events accepted")
	}
	if _, err := Discretize([]Event{{1, 7}}, 1, 1, []int{1}); err == nil {
		t.Fatal("unknown color accepted")
	}
	if _, err := Discretize([]Event{{-1, 0}}, 1, 1, []int{1}); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestCollectBound(t *testing.T) {
	src := NewPoissonSource(1, 0, 100, 1000)
	if _, err := Collect(src, 10); err == nil {
		t.Fatal("Collect bound not enforced")
	}
}

// Property: discretization preserves the event count and produces a valid
// instance for arbitrary event streams.
func TestDiscretizePreservesCountProperty(t *testing.T) {
	f := func(seed uint64, rateQ uint8) bool {
		rate := 0.5 + float64(rateQ%40)/10
		src := Merge(
			NewPoissonSource(seed, 0, rate, 200),
			NewOnOffSource(seed+1, 1, rate*4, 10, 40, 200),
		)
		evs, err := Collect(src, 0)
		if err != nil {
			return false
		}
		inst, err := Discretize(evs, 1.0, 2, []int{4, 16})
		if err != nil {
			return false
		}
		return inst.TotalJobs() == len(evs) && inst.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndWithEngine wires a discretized continuous workload into the
// simulator to confirm the front-end composes with the rest of the stack.
func TestEndToEndWithEngine(t *testing.T) {
	src := Merge(
		NewPoissonSource(11, 0, 1.5, 500),
		NewPoissonSource(12, 1, 0.7, 500),
		NewOnOffSource(13, 2, 6, 20, 80, 500),
	)
	evs, err := Collect(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Discretize(evs, 1.0, 4, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(inst, &nullPolicy{}, sched.Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed+res.Dropped != len(evs) {
		t.Fatalf("conservation: %d + %d != %d", res.Executed, res.Dropped, len(evs))
	}
}

type nullPolicy struct{ assign []sched.Color }

func (p *nullPolicy) Name() string { return "null" }
func (p *nullPolicy) Reset(env sched.Env) {
	p.assign = make([]sched.Color, env.N)
	for i := range p.assign {
		p.assign[i] = 0
	}
}
func (p *nullPolicy) Reconfigure(*sched.Context) []sched.Color { return p.assign }
