package main

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// fakeClock advances only when the sender sleeps (by the asked time plus
// a fixed oversleep) or a send does work.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.oversleep) }

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	const us = time.Microsecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, oversleep: 30 * us}
	var sent []int
	lat, late, err := openLoop(clk, start, 100*us, start.Add(600*us), func(k int) error {
		sent = append(sent, k)
		work := 50 * us
		if k == 3 {
			work = 500 * us // a stall in the server
		}
		clk.now = clk.now.Add(work)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(sent, want) {
		t.Fatalf("sent %v, want every send due before the end %v", sent, want)
	}
	// Send k is due at k·100µs. Sends 1-3 sleep and wake 30µs late; the
	// stall in send 3 makes 4 and 5 start late without sleeping, and
	// their latency from the due time carries the wait it imposed.
	wantLat := []time.Duration{50 * us, 80 * us, 80 * us, 530 * us, 480 * us, 430 * us}
	if !slices.Equal(lat, wantLat) {
		t.Errorf("latency from due = %v, want %v", lat, wantLat)
	}
	if wantLate := []time.Duration{30 * us, 30 * us, 30 * us}; !slices.Equal(late, wantLate) {
		t.Errorf("lateness = %v, want only the sleeps' overshoot %v", late, wantLate)
	}
}

func TestOpenLoopStopsAtTheFirstError(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &fakeClock{now: start}
	calls := 0
	_, _, err := openLoop(clk, start, time.Millisecond, start.Add(time.Second), func(k int) error {
		calls++
		if k == 2 {
			return errTest
		}
		return nil
	})
	if !errors.Is(err, errTest) || calls != 3 {
		t.Fatalf("err %v after %d calls, want errTest after 3", err, calls)
	}
}

var errTest = errors.New("test")
