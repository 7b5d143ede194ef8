package serve

import (
	"strings"
	"testing"
	"time"
)

// TestPaceClock pins the pass clock's arithmetic on synthetic times:
// a pass is owed every whole interval since the last, up to maxPaceLag
// of them, and the origin keeps its phase, so a stall's excess is
// dropped rather than owed later and nothing is counted twice.
func TestPaceClock(t *testing.T) {
	const us = time.Microsecond
	t0 := time.Now()
	c := newPaceClock(200*us, t0)
	for _, step := range []struct {
		name string
		at   time.Duration // since t0
		want int
	}{
		{"on-time tick", 200 * us, 1},
		{"wake after the runtime's 1 ms sleep", 1200 * us, 5},
		{"50 ms stall, capped at maxPaceLag", 51200 * us, 20},
		{"on-time tick after the stall", 51400 * us, 1},
		{"wake before the interval ends", 51500 * us, 0},
		{"tick at the kept phase", 51600 * us, 1},
	} {
		if got := c.owed(t0.Add(step.at)); got != step.want {
			t.Fatalf("%s (t0+%v): owed %d, want %d", step.name, step.at, got, step.want)
		}
	}

	// An interval above maxPaceLag is still owed once per tick. The
	// worker reads the origin before it starts the ticker; here the
	// ticker starts 0.5 ms later and every tick jitters by ±0.5 ms, so
	// none reads as early and none as a whole interval late.
	const interval = 10 * time.Millisecond
	c = newPaceClock(interval, t0)
	for k := 1; k <= 1000; k++ {
		jitter := time.Duration((k*7919)%1001-500) * us
		at := 500*us + time.Duration(k)*interval + jitter
		if got := c.owed(t0.Add(at)); got != 1 {
			t.Fatalf("10 ms tick %d at t0+%v: owed %d, want 1", k, at, got)
		}
	}
}

// TestPacedShardKeepsPace runs one backlogged tenant on a one-shard
// server paced at 200 µs and counts the rounds it is served over 300 ms
// of wall time. The runtime wakes the worker at about 1 ms granularity,
// so a worker serving one interval per tick received would read about a
// fifth of the configured pace; the pass clock makes up the missed
// intervals, so the count must reach half the pace and may exceed it by
// no more than one capped make-up pass.
func TestPacedShardKeepsPace(t *testing.T) {
	const interval = 200 * time.Microsecond
	s := startServer(t, Config{Shards: 1, RoundInterval: interval})
	c := dialTest(t, s)
	inst := testInstance(t, 4*MaxBatch, 0)
	tc := tcFor(inst)
	tc.QueueCap = len(inst.Requests)
	if _, _, err := c.Open("lone", tc); err != nil {
		t.Fatal(err)
	}
	admitted := 0
	pl := c.NewPipeline(1, func(r SubmitResult) {
		if r.Err != nil {
			t.Errorf("submit [%d,%d): %v", r.Seq, r.Seq+r.Rounds, r.Err)
		}
		admitted += r.Admitted
	})
	for seq := 0; seq < len(inst.Requests); seq += MaxBatch {
		if err := pl.SubmitBatch("lone", seq, inst.Requests[seq:seq+MaxBatch]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Flush(); err != nil || admitted != len(inst.Requests) {
		t.Fatalf("admitted %d of %d rounds (%v)", admitted, len(inst.Requests), err)
	}

	row := func() TenantStats {
		rows, err := c.Stats("lone")
		if err != nil || len(rows) != 1 {
			t.Fatalf("stats = (%v, %v)", rows, err)
		}
		return rows[0]
	}
	start := time.Now()
	before := row()
	time.Sleep(300 * time.Millisecond)
	after := row()
	elapsed := time.Since(start)
	if after.QueueDepth == 0 {
		t.Fatalf("backlog drained within the window (%d rounds served): the count measures the trace, not the pace", after.ServedRounds)
	}
	due := float64(elapsed) / float64(interval)
	got := float64(after.ServedRounds - before.ServedRounds)
	most := due + float64(maxPaceLag/interval) + 2
	t.Logf("served %.0f rounds in %v: %.2f of the %.0f due", got, elapsed, got/due, due)
	if got < 0.5*due || got > most {
		t.Fatalf("served %.0f rounds in %v at %v a round; want between %.0f and %.0f", got, elapsed, interval, 0.5*due, most)
	}
}

// TestPacedIntervalMustNotBeNegative: a negative RoundInterval is a
// configuration error naming the value, not a silently eager server.
func TestPacedIntervalMustNotBeNegative(t *testing.T) {
	s, err := NewServer(Config{Addr: "127.0.0.1:0", RoundInterval: -200 * time.Microsecond})
	if err == nil {
		s.Close()
		t.Fatal("NewServer accepted RoundInterval -200µs")
	}
	if !strings.Contains(err.Error(), "-200µs") {
		t.Fatalf("error %q does not name the interval -200µs", err)
	}
}
