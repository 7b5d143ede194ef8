package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestBDRAdmission pins the admission surface end to end on a
// single-shard BDR server (shard BDR = rate 1, delay 1): feasible
// reservations admit and show in stats, infeasible ones come back as
// *AdmissionError carrying the shard's residual capacity, malformed
// ones are bad requests, re-opens must match the reservation exactly,
// and closing a reserved tenant frees its slice.
func TestBDRAdmission(t *testing.T) {
	inst := testInstance(t, 16, 0)
	s := startServer(t, Config{Shards: 1, BDR: true})
	c := dialTest(t, s)
	tc := tcFor(inst)
	tc.ResRate, tc.ResDelay = 0.6, 32

	if _, _, err := c.Open("res-a", tc); err != nil {
		t.Fatalf("feasible reserved open: %v", err)
	}
	rows, err := c.Stats("res-a")
	if err != nil || len(rows) != 1 {
		t.Fatalf("stats = (%v, %v)", rows, err)
	}
	if rows[0].ReservedRate != 0.6 || rows[0].ReservedDelay != 32 {
		t.Fatalf("stats reservation = (%g, %g), want (0.6, 32)", rows[0].ReservedRate, rows[0].ReservedDelay)
	}

	// A second 0.6 cannot fit the 0.4 residual; the typed rejection
	// names what would have fit.
	var ae *AdmissionError
	if _, _, err := c.Open("res-b", tc); !errors.As(err, &ae) {
		t.Fatalf("infeasible open = %v, want *AdmissionError", err)
	}
	if math.Abs(ae.ResidualRate-0.4) > 1e-9 || ae.ResidualDelay != 1 {
		t.Fatalf("residual = (%g, %g), want (0.4, 1)", ae.ResidualRate, ae.ResidualDelay)
	}

	// A delay at or under the shard's own bound is infeasible however
	// small the rate: the shard cannot promise service sooner than it
	// receives it.
	tight := tc
	tight.ResRate, tight.ResDelay = 0.01, 1
	if _, _, err := c.Open("res-tight", tight); !errors.As(err, &ae) {
		t.Fatalf("tight-delay open = %v, want *AdmissionError", err)
	}

	// Rate beyond a whole shard is malformed, not an admission question.
	over := tc
	over.ResRate = 1.5
	var re *RemoteError
	if _, _, err := c.Open("res-over", over); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("rate>1 open = %v, want codeBadRequest", err)
	}

	// Re-open with the identical reservation re-attaches; a differing
	// one is a config conflict.
	if _, resumed, err := c.Open("res-a", tc); err != nil || !resumed {
		t.Fatalf("matching re-open = (resumed %v, %v), want (true, nil)", resumed, err)
	}
	diff := tc
	diff.ResRate = 0.5
	if _, _, err := c.Open("res-a", diff); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("mismatched re-open = %v, want ErrTenantExists", err)
	}

	// Closing the holder frees the slice: the rejected reservation now
	// admits.
	if _, err := c.CloseTenant("res-a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open("res-b", tc); err != nil {
		t.Fatalf("open after release: %v", err)
	}
}

// TestBDRRequiresFlag: a reservation against a server without -bdr is a
// bad request, and with -bdr off the open path is otherwise unchanged.
func TestBDRRequiresFlag(t *testing.T) {
	inst := testInstance(t, 8, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("plain", tc); err != nil {
		t.Fatalf("unreserved open on non-BDR server: %v", err)
	}
	tc.ResRate, tc.ResDelay = 0.5, 32
	var re *RemoteError
	if _, _, err := c.Open("wants-res", tc); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("reserved open on non-BDR server = %v, want codeBadRequest", err)
	}
}

// TestBDRRecovery pins the durable half of admission: a reserved
// tenant's (rate, delay) survives a restart in its log records and is
// re-admitted into the tree (a new open against the recovered residual
// is rejected), while restarting the same directory without -bdr fails
// loudly instead of silently dropping the guarantee.
func TestBDRRecovery(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 16, 0)
	tc := tcFor(inst)
	tc.ResRate, tc.ResDelay = 0.7, 32

	s1 := startServer(t, Config{Shards: 1, BDR: true, CheckpointDir: dir})
	c1 := dialTest(t, s1)
	if _, _, err := c1.Open("durable", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c1, "durable", inst, 0)
	s1.Close()

	s2 := startServer(t, Config{Shards: 1, BDR: true, CheckpointDir: dir})
	c2 := dialTest(t, s2)
	rows, err := c2.Stats("durable")
	if err != nil || len(rows) != 1 {
		t.Fatalf("stats after recovery = (%v, %v)", rows, err)
	}
	if rows[0].ReservedRate != 0.7 || rows[0].ReservedDelay != 32 {
		t.Fatalf("recovered reservation = (%g, %g), want (0.7, 32)", rows[0].ReservedRate, rows[0].ReservedDelay)
	}
	// The recovered reservation occupies the tree: 0.5 exceeds the 0.3
	// residual.
	want := tc
	want.ResRate = 0.5
	var ae *AdmissionError
	if _, _, err := c2.Open("squeezed", want); !errors.As(err, &ae) {
		t.Fatalf("open against recovered residual = %v, want *AdmissionError", err)
	}
	s2.Close()

	// Restarting without -bdr must refuse to recover the directory.
	if _, err := NewServer(Config{Addr: "127.0.0.1:0", CheckpointDir: dir}); err == nil {
		t.Fatal("recovery without -bdr succeeded; want a loud failure")
	}
}

// TestBDRIsolation is the deterministic form of the admission scenario,
// modeled on runStarvation: one hot unreserved tenant holds a standing
// backlog while reserved victims trickle rounds in between passes.
// Under the fractional-share controller every reserved victim's delay
// factor must stay at or under 1.0 — the guarantee the admission check
// promised — and the victims' budget utilization must reach their
// accrual (≥ 1: they got at least the service their reservation
// integrates to). It runs two schedules: on-time passes, each owed one
// interval, with one victim round between them; and late passes, each
// owed 4 intervals as a paced worker's pass clock grants them after a
// late wake, with 4 victim rounds between them. 4 is the most a victim
// can queue before its own arrivals exceed its tightest bound (the
// router trace's MinDelay 4).
func TestBDRIsolation(t *testing.T) {
	for _, intervals := range []int{1, 4} {
		t.Run(fmt.Sprintf("intervals=%d", intervals), func(t *testing.T) {
			runBDRIsolation(t, intervals)
		})
	}
}

func runBDRIsolation(t *testing.T, intervals int) {
	const victims, passes = 4, 40
	s := startServer(t, Config{Shards: 1, BDR: true, RoundInterval: time.Hour,
		DefaultQueueCap: 1024})
	c := dialTest(t, s)

	hot := testInstance(t, 1024, 0)
	htc := tcFor(hot)
	htc.QueueCap = 1024
	if _, _, err := c.Open("hot", htc); err != nil {
		t.Fatal(err)
	}
	type feedState struct {
		id   string
		inst *sched.Instance
		next int
	}
	feeds := make([]feedState, victims)
	for i := range feeds {
		inst := testInstance(t, passes*intervals, i+1)
		id := "victim" + string(rune('A'+i))
		vtc := tcFor(inst)
		// Each victim reserves 1/8 of the shard with a delay bound of 8
		// rounds: jointly 0.5, feasible alongside the unreserved hot
		// tenant (which needs no reservation to be admitted).
		vtc.ResRate, vtc.ResDelay = 0.125, 8
		if _, _, err := c.Open(id, vtc); err != nil {
			t.Fatal(err)
		}
		feeds[i] = feedState{id: id, inst: inst}
	}

	// The hot tenant's standing backlog: more rounds than the whole
	// run's pass budgets add up to, so it never drains.
	need := passes * (victims + 2) * intervals
	for seq := 0; seq < need; seq++ {
		if _, _, err := c.Submit("hot", seq, hot.Requests[seq]); err != nil {
			t.Fatalf("hot submit %d: %v", seq, err)
		}
	}

	sh := s.shards[0]
	var ps passState
	for pass := 0; pass < passes; pass++ {
		for i := range feeds {
			f := &feeds[i]
			for k := 0; k < intervals; k++ {
				if _, _, err := c.Submit(f.id, f.next, f.inst.Requests[f.next]); err != nil {
					t.Fatalf("%s submit %d: %v", f.id, f.next, err)
				}
				f.next++
			}
		}
		s.servePass(sh, &ps, intervals)
	}

	rows, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ID == "hot" {
			continue
		}
		if r.MaxDelayFactor > 1.0 {
			t.Errorf("reserved victim %s delay factor %.3f exceeds 1.0", r.ID, r.MaxDelayFactor)
		}
		if r.ReservedRate != 0.125 {
			t.Errorf("victim %s reserved rate %g, want 0.125", r.ID, r.ReservedRate)
		}
		if r.BudgetUtilization < 1.0 {
			t.Errorf("victim %s budget utilization %.3f < 1.0: served less than its guarantee", r.ID, r.BudgetUtilization)
		}
	}
}

// TestBDRUtilizationShortQueue: a reservation whose queue is shorter
// than its per-pass accrual still reads a budget utilization of at
// least 1 when every round it queued was served. A tenant reserving
// 0.2 at delay 16 submits 0–3 rounds before each of 400 paced passes,
// owed 1 and then 3 intervals, beside ten saturating best-effort
// tenants: a pass over eleven backlogged tenants applies 11 rounds per
// interval, so the reservation accrues 2.2 per interval, more than it
// often has queued. Its queue must be empty after the last pass and its
// delay factor never above 1. Accruing rate × every round a pass
// applied, however few the tenant had queued, read 0.93 and 0.40 here:
// a missed guarantee that did not happen.
func TestBDRUtilizationShortQueue(t *testing.T) {
	for _, intervals := range []int{1, 3} {
		t.Run(fmt.Sprintf("intervals=%d", intervals), func(t *testing.T) {
			const hot, passes = 10, 400
			s := startServer(t, Config{Shards: 1, BDR: true, RoundInterval: time.Hour})
			for i := 0; i < hot; i++ {
				inst := testInstance(t, 4096, i)
				tc := tcFor(inst)
				tc.QueueCap = len(inst.Requests)
				id := fmt.Sprintf("hot%d", i)
				if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: id, Config: tc}); er != nil {
					t.Fatal(er.Msg)
				}
				if n, _, _, er := s.tenant(id).submitBatch(0, inst.Requests); er != nil {
					t.Fatalf("%s: queued %d rounds: %s", id, n, er.Msg)
				}
			}
			inst := testInstance(t, 3*passes, hot)
			rtc := tcFor(inst)
			rtc.ResRate, rtc.ResDelay = 0.2, 16
			if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: "res", Config: rtc}); er != nil {
				t.Fatal(er.Msg)
			}
			res := s.tenant("res")
			rng := rand.New(rand.NewSource(int64(intervals)))
			var ps passState
			next := 0
			for pass := 0; pass < passes; pass++ {
				n := rng.Intn(4)
				if k, _, _, er := res.submitBatch(next, inst.Requests[next:next+n]); er != nil {
					t.Fatalf("pass %d: queued %d of %d rounds: %s", pass, k, n, er.Msg)
				}
				next += n
				s.servePass(s.shards[0], &ps, intervals)
			}
			for i := 0; i < hot; i++ {
				if q := s.tenant(fmt.Sprintf("hot%d", i)).stats().QueueDepth; q == 0 {
					t.Fatalf("hot%d drained, so it did not saturate the shard", i)
				}
			}
			row := res.stats()
			t.Logf("served %d of %d rounds, budget utilization %.3f, max delay factor %.3f",
				row.ServedRounds, next, row.BudgetUtilization, row.MaxDelayFactor)
			if row.QueueDepth != 0 || row.MaxDelayFactor > 1 {
				t.Fatalf("reservation queue %d, max delay factor %.3f: want every round served within its bound",
					row.QueueDepth, row.MaxDelayFactor)
			}
			if row.BudgetUtilization < 1 {
				t.Fatalf("budget utilization %.3f < 1 with every queued round served", row.BudgetUtilization)
			}
		})
	}
}
