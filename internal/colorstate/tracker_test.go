package colorstate

import (
	"testing"

	"repro/internal/sched"
)

func never(sched.Color) bool  { return false }
func always(sched.Color) bool { return true }

// TestCounterWrapAndEligibility walks the §3.1 arrival-phase rules by
// hand: a color becomes eligible exactly when its counter reaches Δ, and
// the counter wraps modulo Δ.
func TestCounterWrapAndEligibility(t *testing.T) {
	tr := New(3, []int{4})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 2)
	st := tr.Get(0)
	if st.Eligible || st.Cnt != 2 {
		t.Fatalf("after 2 arrivals: eligible=%v cnt=%d", st.Eligible, st.Cnt)
	}
	tr.OnArrival(0, 0, 4) // cnt 6 ≥ 3: wrap to 0, eligible
	if !st.Eligible || st.Cnt != 0 || st.Wraps != 1 || st.LastWrap != 0 {
		t.Fatalf("after wrap: %+v", *st)
	}
	if len(tr.eligible) != 1 {
		t.Fatalf("%d eligible colors, want 1", len(tr.eligible))
	}
}

// TestDropPhaseRule: at a multiple of D_ℓ, an eligible uncached color
// turns ineligible with its counter reset; a cached one stays eligible.
func TestDropPhaseRule(t *testing.T) {
	tr := New(2, []int{4})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 2) // wrap, eligible
	if !tr.Eligible(0) {
		t.Fatal("not eligible after wrap")
	}
	// Rounds 1–3 are not multiples of 4: nothing happens.
	for r := 1; r < 4; r++ {
		tr.BeginRound(r, never)
		if !tr.Eligible(0) {
			t.Fatalf("lost eligibility at non-multiple round %d", r)
		}
	}
	// Round 4, uncached: ineligible, counter reset, epoch ended.
	tr.BeginRound(4, never)
	st := tr.Get(0)
	if st.Eligible || st.Cnt != 0 || st.EpochsEnded != 1 {
		t.Fatalf("drop rule failed: %+v", *st)
	}

	// Same scenario but cached: stays eligible.
	tr2 := New(2, []int{4})
	tr2.BeginRound(0, never)
	tr2.OnArrival(0, 0, 2)
	tr2.BeginRound(4, always)
	if !tr2.Eligible(0) {
		t.Fatal("cached color lost eligibility")
	}
}

// TestTimestampLag: a wrap in round k becomes the timestamp only at the
// next multiple of D_ℓ (§3.1.1).
func TestTimestampLag(t *testing.T) {
	tr := New(2, []int{4})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 2) // wrap at round 0
	if ts := tr.Get(0).Timestamp; ts != 0 {
		t.Fatalf("timestamp advanced early: %d", ts)
	}
	tr.BeginRound(4, always) // multiple: wrap at round 0 becomes visible
	// Timestamp 0 is also the default; use TsUpdates to observe the event.
	if tr.Get(0).TsUpdates != 0 {
		// A wrap at round 0 equals the initial timestamp 0, so no update
		// event fires — this matches the paper's "0 if no such round".
		t.Fatalf("unexpected ts update: %+v", *tr.Get(0))
	}
	tr.OnArrival(4, 0, 2) // wrap at round 4
	tr.BeginRound(8, always)
	st := tr.Get(0)
	if st.Timestamp != 4 || st.TsUpdates != 1 {
		t.Fatalf("timestamp after second wrap: %+v", *st)
	}
}

// TestDeadlineAdvancesEveryMultiple: ℓ.dd is k + D_ℓ after every multiple
// k, even with no arrivals.
func TestDeadlineAdvancesEveryMultiple(t *testing.T) {
	tr := New(1, []int{2})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 1)
	if dd := tr.Get(0).Deadline; dd != 2 {
		t.Fatalf("deadline after registration = %d", dd)
	}
	tr.BeginRound(1, always)
	tr.BeginRound(2, always)
	if dd := tr.Get(0).Deadline; dd != 4 {
		t.Fatalf("deadline after round 2 = %d, want 4", dd)
	}
	tr.BeginRound(6, always) // skipped rounds: multiples 4 and 6 both process
	if dd := tr.Get(0).Deadline; dd != 8 {
		t.Fatalf("deadline after catch-up = %d, want 8", dd)
	}
}

// TestRegistrationMidStream: a color first seen at a non-multiple round
// gets the enclosing block's deadline.
func TestRegistrationMidStream(t *testing.T) {
	tr := New(1, []int{4})
	tr.BeginRound(6, never)
	tr.OnArrival(6, 0, 1)
	if dd := tr.Get(0).Deadline; dd != 8 {
		t.Fatalf("mid-stream registration deadline = %d, want 8", dd)
	}
	if !tr.Eligible(0) { // threshold 1: eligible immediately
		t.Fatal("not eligible with threshold 1")
	}
}

func TestAppendEligibleSorted(t *testing.T) {
	tr := New(1, []int{2, 2, 2})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 2, 1)
	tr.OnArrival(0, 0, 1)
	got := tr.AppendEligible(nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("AppendEligible = %v", got)
	}
}

func TestNumEpochs(t *testing.T) {
	tr := New(1, []int{2, 2})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 1)
	if got := tr.NumEpochs(); got != 1 {
		t.Fatalf("one known color: NumEpochs = %d", got)
	}
	tr.BeginRound(2, never) // color 0 ends its epoch
	if got := tr.NumEpochs(); got != 2 {
		t.Fatalf("after epoch end: NumEpochs = %d", got)
	}
	tr.OnArrival(2, 1, 1)
	if got := tr.NumEpochs(); got != 3 {
		t.Fatalf("two known colors: NumEpochs = %d", got)
	}
}

func TestThresholdVariant(t *testing.T) {
	tr := NewWithThreshold(4, 2, []int{2})
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 2) // threshold 2 < Δ=4: eligible already
	if !tr.Eligible(0) {
		t.Fatal("threshold variant not eligible at 2 arrivals")
	}
}

func TestImmediateTimestamps(t *testing.T) {
	tr := New(2, []int{8})
	tr.SetImmediateTimestamps(true)
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 2)
	tr.BeginRound(3, always)
	tr.OnArrival(3, 0, 2) // wrap at a non-multiple round 3
	if ts := tr.Get(0).Timestamp; ts != 3 {
		t.Fatalf("immediate timestamp = %d, want 3", ts)
	}
}

func TestTsEventLogAndSuperEpochs(t *testing.T) {
	tr := New(1, []int{2, 2, 2, 2})
	tr.RecordTsEvents()
	// Wraps for all four colors in round 0 (threshold 1), visible at
	// round 2 — except they equal the default timestamp 0... so generate
	// wraps at round 2 instead, visible at round 4.
	tr.BeginRound(0, never)
	for c := sched.Color(0); c < 4; c++ {
		tr.OnArrival(0, c, 1)
	}
	tr.BeginRound(2, always)
	for c := sched.Color(0); c < 4; c++ {
		tr.OnArrival(2, c, 1)
	}
	tr.BeginRound(4, always)
	log := tr.TsEventLog()
	if len(log) != 4 {
		t.Fatalf("ts event log has %d entries, want 4", len(log))
	}
	if got := tr.SuperEpochs(2); got != 2 {
		t.Fatalf("SuperEpochs(2) = %d, want 2", got)
	}
	if got := tr.SuperEpochs(5); got != 0 {
		t.Fatalf("SuperEpochs(5) = %d, want 0", got)
	}
}

func TestSuperEpochWindows(t *testing.T) {
	tr := New(1, []int{2, 2, 2})
	tr.RecordTsEvents()
	tr.BeginRound(0, never)
	for c := sched.Color(0); c < 3; c++ {
		tr.OnArrival(0, c, 1) // wraps at round 0
	}
	tr.BeginRound(2, always)
	for c := sched.Color(0); c < 3; c++ {
		tr.OnArrival(2, c, 1) // wraps at round 2, visible at round 4
	}
	tr.BeginRound(4, always)
	ws := tr.SuperEpochWindows(2)
	if len(ws) != 1 {
		t.Fatalf("windows = %v", ws)
	}
	if ws[0][1] != 4 {
		t.Fatalf("window end = %d, want 4", ws[0][1])
	}
	if got := tr.SuperEpochs(2); got != 1 {
		t.Fatalf("SuperEpochs = %d", got)
	}
}

func TestEpochsOverlapping(t *testing.T) {
	tr := New(1, []int{2})
	tr.RecordTsEvents()
	tr.BeginRound(0, never)
	tr.OnArrival(0, 0, 1)   // eligible
	tr.BeginRound(2, never) // epoch 0 ends at round 2
	tr.OnArrival(2, 0, 1)   // eligible again
	tr.BeginRound(4, never) // epoch 1 ends at round 4
	if got := len(tr.EpochEndLog()); got != 2 {
		t.Fatalf("epoch ends = %d", got)
	}
	// Window [0,2]: epoch 0 ([0,2]) and epoch 1 ([2,4]) overlap, plus the
	// open final epoch [4,∞) does not.
	if got := tr.EpochsOverlapping(0, 0, 2); got != 2 {
		t.Fatalf("overlap [0,2] = %d, want 2", got)
	}
	// Window [3,9]: epoch 1 and the open epoch overlap.
	if got := tr.EpochsOverlapping(0, 3, 9); got != 2 {
		t.Fatalf("overlap [3,9] = %d, want 2", got)
	}
	// Unknown color: zero.
	tr2 := New(1, []int{2})
	if got := tr2.EpochsOverlapping(0, 0, 100); got != 0 {
		t.Fatalf("unknown color overlap = %d", got)
	}
}
