package sched

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// TestAdvanceSortsWideTickQuickly: one tick naming each of 2¹⁷ colors
// once, in descending order, is normalized and stepped within 5 s; an
// insertion sort makes about 2³³ swaps on it. The step runs on its own
// goroutine, so a slow sort fails at the deadline instead of hanging.
func TestAdvanceSortsWideTickQuickly(t *testing.T) {
	const colors = 1 << 17
	delays := make([]int, colors)
	tick := make(Request, colors)
	for c := range delays {
		delays[c] = 1
		tick[c] = Batch{Color: Color(colors - 1 - c), Count: 1}
	}
	st, err := NewStream(&scripted{rows: [][]Color{{0}}}, StreamConfig{N: 1, Delta: 1, Delays: delays})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- st.Advance(tick) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one tick of 2¹⁷ colors still stepping after 5 s")
	}
	if got := st.Executed() + st.TotalPending(); got != colors {
		t.Fatalf("executed + pending = %d, want %d", got, colors)
	}
}

func TestStreamValidation(t *testing.T) {
	pol := &scripted{rows: [][]Color{{0}}}
	if _, err := NewStream(pol, StreamConfig{N: 0, Delta: 1, Delays: []int{1}}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewStream(pol, StreamConfig{N: 1, Delta: 0, Delays: []int{1}}); err == nil {
		t.Fatal("Delta=0 accepted")
	}
	if _, err := NewStream(pol, StreamConfig{N: 1, Delta: 1, Delays: []int{0}}); err == nil {
		t.Fatal("zero delay accepted")
	}
	if _, err := NewStream(pol, StreamConfig{N: 1, Delta: 1, Speed: -1, Delays: []int{1}}); err == nil {
		t.Fatal("negative speed accepted")
	}
	st, err := NewStream(pol, StreamConfig{N: 1, Delta: 1, Delays: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(Request{{Color: 5, Count: 1}}); err == nil {
		t.Fatal("unknown color accepted")
	}
	if _, err := st.Step(Request{{Color: 0, Count: 0}}); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestStreamStepReporting(t *testing.T) {
	pol := &scripted{rows: [][]Color{{0}}}
	st, err := NewStream(pol, StreamConfig{N: 1, Delta: 3, Delays: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0: 2 jobs arrive, 1 executed, 1 reconfig.
	out, err := st.Step(Request{{Color: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != 0 || out.Reconfigs != 1 {
		t.Fatalf("round 0: %+v", out)
	}
	if len(out.Executed) != 1 || out.Executed[0] != (Batch{Color: 0, Count: 1}) {
		t.Fatalf("round 0 executed: %v", out.Executed)
	}
	if st.Pending(0) != 1 || st.TotalPending() != 1 {
		t.Fatalf("pending = %d", st.Pending(0))
	}
	// Round 1: second job executed.
	out, err = st.Step(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Executed) != 1 || out.Reconfigs != 0 {
		t.Fatalf("round 1: %+v", out)
	}
	if st.Cost() != (Cost{Reconfig: 3, Drop: 0}) {
		t.Fatalf("cost = %v", st.Cost())
	}
	if st.Executed() != 2 || st.Dropped() != 0 || st.Round() != 2 {
		t.Fatalf("totals: exec=%d drop=%d round=%d", st.Executed(), st.Dropped(), st.Round())
	}
}

func TestStreamReportsDrops(t *testing.T) {
	pol := &scripted{rows: [][]Color{{NoColor}}}
	st, err := NewStream(pol, StreamConfig{N: 1, Delta: 1, Delays: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(Request{{Color: 0, Count: 3}}); err != nil {
		t.Fatal(err)
	}
	out, err := st.Step(nil) // round 1: deadline 1 reached
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Dropped) != 1 || out.Dropped[0] != (Batch{Color: 0, Count: 3}) {
		t.Fatalf("drops: %v", out.Dropped)
	}
	if st.Cost().Drop != 3 {
		t.Fatalf("drop cost %d", st.Cost().Drop)
	}
}

func TestStreamDrain(t *testing.T) {
	pol := &scripted{rows: [][]Color{{0}}}
	st, err := NewStream(pol, StreamConfig{N: 1, Delta: 1, Delays: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(Request{{Color: 0, Count: 4}}); err != nil {
		t.Fatal(err)
	}
	rounds, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalPending() != 0 {
		t.Fatal("Drain left pending jobs")
	}
	if rounds != 3 { // 1 executed in round 0, 3 more rounds for the rest
		t.Fatalf("Drain took %d rounds, want 3", rounds)
	}
}

// TestStreamMatchesRunProperty: feeding an instance through a Stream
// round by round yields exactly the same result as the batch engine.
func TestStreamMatchesRunProperty(t *testing.T) {
	f := func(seed uint64) bool {
		inst := randomInstance(seed, 4, 16, 3)
		polA := randomScript(seed+3, inst, 3, inst.Horizon())
		polB := randomScript(seed+3, inst, 3, inst.Horizon())

		want, err := Run(inst.Clone(), polA, Options{N: 3})
		if err != nil {
			return false
		}
		st, err := NewStream(polB, StreamConfig{N: 3, Delta: inst.Delta, Delays: inst.Delays})
		if err != nil {
			return false
		}
		for r := 0; r < inst.NumRounds(); r++ {
			if _, err := st.Step(inst.Requests[r]); err != nil {
				return false
			}
		}
		if _, err := st.Drain(); err != nil {
			return false
		}
		got := st.Result()
		return got.Cost == want.Cost && got.Executed == want.Executed && got.Dropped == want.Dropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestStepResultClone pins the retention contract: a raw StepResult
// aliases buffers the Stream overwrites on the next Step, while a Clone
// is a stable deep copy. The first half of the test is the footgun the
// StepResult doc warns about; the second half is the cure.
func TestStepResultClone(t *testing.T) {
	rows := make([][]Color, 16)
	for i := range rows {
		rows[i] = []Color{0, 1}
	}
	st, err := NewStream(&scripted{rows: rows}, StreamConfig{N: 2, Delta: 2, Delays: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// A round with arrivals on both colors, so Executed is non-empty.
	raw, err := st.Step(Request{{Color: 0, Count: 1}, {Color: 1, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	clone := raw.Clone()
	if !reflect.DeepEqual(raw, clone) {
		t.Fatalf("clone diverged immediately: raw %+v clone %+v", raw, clone)
	}
	if len(clone.Executed) > 0 && &clone.Executed[0] == &raw.Executed[0] {
		t.Fatal("Clone shares the Executed backing array")
	}
	if len(clone.Assignment) > 0 && &clone.Assignment[0] == &raw.Assignment[0] {
		t.Fatal("Clone shares the Assignment backing array")
	}
	savedRound, savedExec := clone.Round, append([]Batch(nil), clone.Executed...)

	// Drive more rounds; the raw result is now stale storage, the clone
	// must be untouched.
	for i := 0; i < 8; i++ {
		if _, err := st.Step(Request{{Color: 1, Count: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if clone.Round != savedRound || !reflect.DeepEqual(clone.Executed, savedExec) {
		t.Fatalf("clone mutated by later Steps: %+v", clone)
	}
}
