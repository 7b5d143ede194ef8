package sched

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/snap"
)

func TestJobPoolExpireAndTake(t *testing.T) {
	p := newJobPool(3)
	p.add(0, 5, 2)
	p.add(1, 3, 1)
	p.add(0, 7, 1)
	if p.totalPending() != 4 {
		t.Fatalf("total = %d", p.totalPending())
	}
	if dl, ok := p.earliestDeadline(0); !ok || dl != 5 {
		t.Fatalf("earliest(0) = %d,%v", dl, ok)
	}

	var drops []Color
	n := p.expire(3, func(c Color, cnt int) { drops = append(drops, c) })
	if n != 1 || len(drops) != 1 || drops[0] != 1 {
		t.Fatalf("expire(3): n=%d drops=%v", n, drops)
	}
	if p.pending(1) != 0 {
		t.Fatal("color 1 still pending")
	}

	dl, ok := p.take(0)
	if !ok || dl != 5 {
		t.Fatalf("take = %d,%v", dl, ok)
	}
	dl, ok = p.take(0)
	if !ok || dl != 5 {
		t.Fatalf("second take = %d,%v (bucket had 2)", dl, ok)
	}
	dl, ok = p.take(0)
	if !ok || dl != 7 {
		t.Fatalf("third take = %d,%v", dl, ok)
	}
	if _, ok := p.take(0); ok {
		t.Fatal("take on drained color reported ok")
	}
	if p.totalPending() != 0 {
		t.Fatalf("total = %d after drain", p.totalPending())
	}
}

// TestJobPoolTakeKeepsHeapLayout pins the take that skips the heap fix:
// a take that leaves a color's front bucket non-empty leaves its
// earliest deadline, and so the deadline heap's whole array order (the
// order Export writes into snapshots), unchanged.
func TestJobPoolTakeKeepsHeapLayout(t *testing.T) {
	p := newJobPool(6)
	// Equal deadlines across colors, so the layout depends on tie order.
	for c, dl := range []int{4, 2, 4, 2, 3, 4} {
		p.add(Color(c), dl, 3)
		p.add(Color(c), dl+2, 1)
	}
	layout := func() (out [][2]int) {
		p.dl.Export(func(c Color, dl int) { out = append(out, [2]int{int(c), dl}) })
		return out
	}
	for _, c := range []Color{5, 0, 3, 1, 4, 2} {
		before := layout()
		for i := 0; i < 2; i++ { // the front bucket keeps one of its 3 jobs
			if _, ok := p.take(c); !ok {
				t.Fatalf("take(%d) found nothing", c)
			}
			if after := layout(); !slices.Equal(after, before) {
				t.Fatalf("take(%d) #%d moved the heap: %v → %v", c, i+1, before, after)
			}
		}
	}
	// The third take empties each front bucket; the heap must then
	// follow the next bucket's deadline.
	for c := Color(0); c < 6; c++ {
		p.take(c)
		dl, _ := p.earliestDeadline(c)
		pri, ok := 0, false
		p.dl.Export(func(k Color, v int) {
			if k == c {
				pri, ok = v, true
			}
		})
		if !ok || pri != dl {
			t.Fatalf("color %d: heap priority %d (%v), earliest deadline %d", c, pri, ok, dl)
		}
	}
}

func TestJobPoolNonidle(t *testing.T) {
	p := newJobPool(4)
	p.add(3, 1, 1)
	p.add(1, 1, 1)
	got := p.nonidle(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("nonidle = %v", got)
	}
}

func TestJobPoolExpireMultipleColors(t *testing.T) {
	p := newJobPool(3)
	p.add(0, 2, 1)
	p.add(1, 2, 2)
	p.add(2, 9, 1)
	n := p.expire(2, nil)
	if n != 3 {
		t.Fatalf("expire dropped %d, want 3", n)
	}
	if p.totalPending() != 1 {
		t.Fatalf("total = %d", p.totalPending())
	}
}

// TestJobPoolRestoreDeadlineWindow: a stream at round r holds deadlines
// in [r, r+D_c−1] only. A restored pool with one outside that window is
// an error: past it, the color's next arrival would be due ahead of the
// queued deadline, which the bucket queue cannot hold.
func TestJobPoolRestoreDeadlineWindow(t *testing.T) {
	src := newJobPool(2)
	src.add(1, 3072, 2) // color 1 with D = 3072, arrived in round 0
	enc := snap.NewEncoder()
	src.snapshotState(enc)
	blob := enc.Bytes()
	restore := func(r int, delays []int) error {
		return newJobPool(2).restoreState(snap.NewDecoder(blob), r, delays)
	}
	if err := restore(1, []int{24, 3072}); err != nil {
		t.Fatalf("in-window restore: %v", err)
	}
	for _, tc := range []struct {
		r      int
		delays []int
		want   string
	}{
		{1, []int{24, 24}, "pool color 1 deadline 3072 outside [1, 24]"},
		{3073, []int{24, 3072}, "pool color 1 deadline 3072 outside [3073, 6144]"},
	} {
		err := restore(tc.r, tc.delays)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("restore at round %d with delays %v: %v, want %q", tc.r, tc.delays, err, tc.want)
		}
	}
}
