package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/snap"
)

func TestNewAllocator(t *testing.T) {
	for _, spec := range []string{"", "wdrr"} {
		if a, err := NewAllocator(spec, 0, 0); err != nil || a == nil {
			t.Fatalf("NewAllocator(%q, 0, 0) = (%v, %v), want the allocator", spec, a, err)
		}
	}
	for _, spec := range []string{"fifo", "lifo"} {
		if _, err := NewAllocator(spec, 0, 0); err == nil {
			t.Fatalf("NewAllocator accepted spec %q", spec)
		}
	}
	for _, arg := range []struct {
		quantum    int
		escalation float64
	}{{4, 0}, {0, 1.5}} {
		if _, err := NewAllocator("wdrr", arg.quantum, arg.escalation); err == nil {
			t.Fatalf("NewAllocator accepted quantum %d, escalation %g", arg.quantum, arg.escalation)
		}
	}
}

func TestWDRRPick(t *testing.T) {
	var a Allocator

	// Nobody escalated: the largest deficit wins, ties to the lowest index.
	loads := []TenantLoad{
		{Queued: 1, MinDelay: 8, Weight: 1, Deficit: 2},
		{Queued: 1, MinDelay: 8, Weight: 1, Deficit: 5},
		{Queued: 1, MinDelay: 8, Weight: 1, Deficit: 5},
	}
	if got := a.Pick(loads); got != 1 {
		t.Fatalf("Pick = %d, want 1 (largest deficit, lowest index)", got)
	}

	// One tenant past the escalation threshold restricts service to the
	// escalated set even when an unescalated tenant is owed more.
	loads = []TenantLoad{
		{Queued: 1, MinDelay: 8, Weight: 1, Deficit: 100},
		{Queued: 6, MinDelay: 8, Weight: 1, Deficit: -3},
	}
	if got := a.Pick(loads); got != 1 {
		t.Fatalf("Pick = %d, want the escalated tenant 1", got)
	}

	// The quantum scales with weight.
	if q := a.Quantum(TenantLoad{Weight: 3}); q != 24 {
		t.Fatalf("Quantum(weight 3) = %d, want 24", q)
	}
	if q := a.Quantum(TenantLoad{Weight: 0}); q != 8 {
		t.Fatalf("Quantum(weight 0) = %d, want 8", q)
	}
}

// runStarvation replays one deterministic starved schedule and reports
// the worst victim delay-factor high-water mark and the hot tenant's
// delay factor at the end of the run. A hot tenant opened first (scan
// index 0) holds a standing backlog; each simulated tick the victims
// submit one round apiece and the test drives one paced allocation pass
// owed one interval (a budget of one round per backlogged tenant),
// exactly what the paced shard worker runs for an on-time RoundInterval
// tick.
func runStarvation(t *testing.T) (worst, hotFactor float64) {
	t.Helper()
	const victims, ticks = 4, 40
	// RoundInterval parks the paced worker (first tick is an hour out),
	// so the test owns every allocation pass and the schedule is exact.
	s := startServer(t, Config{Shards: 1, RoundInterval: time.Hour, DefaultQueueCap: 1024})
	c := dialTest(t, s)

	hot := testInstance(t, 512, 0)
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
		inst := testInstance(t, 64, i+1)
		id := "victim" + string(rune('A'+i))
		if _, _, err := c.Open(id, tcFor(inst)); err != nil {
			t.Fatal(err)
		}
		feeds[i] = feedState{id: id, inst: inst}
	}

	// The hot tenant's standing backlog: enough that a whole run of
	// paced passes cannot drain it.
	need := ticks * (victims + 2)
	for seq := 0; seq < need; seq++ {
		if _, _, err := c.Submit("hot", seq, hot.Requests[seq]); err != nil {
			t.Fatalf("hot submit %d: %v", seq, err)
		}
	}

	sh := s.shards[0]
	var ps passState
	for tick := 0; tick < ticks; tick++ {
		for i := range feeds {
			f := &feeds[i]
			if _, _, err := c.Submit(f.id, f.next, f.inst.Requests[f.next]); err != nil {
				t.Fatalf("%s submit %d: %v", f.id, f.next, err)
			}
			f.next++
		}
		s.servePass(sh, &ps, 1)
	}

	rows, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch {
		case r.ID == "hot":
			hotFactor = r.DelayFactor
		case r.MaxDelayFactor > worst:
			worst = r.MaxDelayFactor
		}
	}
	return worst, hotFactor
}

// TestAllocatorStarvation pins the behavior the skewed_bdr benchmark
// measures, deterministically: a hot tenant's standing backlog, served
// first in scan order, would hold the worker for the whole run under a
// drain-first order, and victim delay factors would grow with the tick
// count; escalation caps them near the threshold.
func TestAllocatorStarvation(t *testing.T) {
	worst, hot := runStarvation(t)
	t.Logf("worst victim delay factor %.3f; hot tenant's at the end %.3f", worst, hot)
	if worst > 1.0 {
		t.Fatalf("worst victim delay factor = %.3f, want ≤ 1.0 (escalation must bound victims)", worst)
	}
	// The hot backlog is real: still past its tightest bound after every
	// pass, so it competed with the victims for the whole run.
	if hot < 1.0 {
		t.Fatalf("hot tenant's delay factor = %.3f after the run, want ≥ 1.0 (a standing backlog)", hot)
	}
}

// TestServePassAllocFree pins passState's promise: once the tenants'
// streams have grown their own scratch, a paced pass over a backlogged
// shard allocates nothing, with the BDR share controller off and on,
// and with the checkpoint log on at CheckpointEvery 1. Eight tenants
// hold 4,096 queued rounds each; a first pass serves about 1,000 of
// each, the warm-up a stream needs before its rounds stop allocating.
// With the log on, each measured pass follows a Sync, as it would a
// group commit, so each of its picks appends a record: the snapshot
// into the tenant's pooled buffer and the copy into the log's write
// buffer, warmed as TestCheckpointPathAllocFree warms it.
func TestServePassAllocFree(t *testing.T) {
	for _, mode := range []string{"plain", "BDR", "log"} {
		cfg := Config{Shards: 1, RoundInterval: time.Hour, BDR: mode == "BDR"}
		if mode == "log" {
			cfg.CheckpointDir, cfg.CheckpointEvery = t.TempDir(), 1
			cfg.CkptCommitInterval = time.Hour // the test is the committer
			cfg.CkptSegmentBytes = 64 << 20    // and no segment rotates
		}
		s := startServer(t, cfg)
		for i := 0; i < 8; i++ {
			inst := testInstance(t, 4096, i)
			tc := tcFor(inst)
			tc.QueueCap = len(inst.Requests)
			if cfg.BDR && i < 2 {
				tc.ResRate, tc.ResDelay = 0.25, 8
			}
			id := fmt.Sprintf("t%d", i)
			if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: id, Config: tc}); er != nil {
				t.Fatal(er.Msg)
			}
			if n, _, _, er := s.tenant(id).submitBatch(0, inst.Requests); er != nil {
				t.Fatalf("%s: queued %d rounds: %s", id, n, er.Msg)
			}
		}
		sh := s.shards[0]
		var ps passState
		s.servePass(sh, &ps, 1000)
		if s.clog != nil {
			// Grow every snapshot buffer and the log's write buffer past
			// what a measured pass needs; each measured Sync empties the
			// write buffer and keeps its capacity.
			for _, tn := range s.tenantList() {
				tn.mu.Lock()
				for i := 0; i < 64; i++ {
					if err := tn.logCheckpointLocked(tn.st.Round()); err != nil {
						t.Fatal(err)
					}
				}
				tn.mu.Unlock()
			}
		}
		for _, k := range []int{1, 4} {
			var appends int64
			pass := func() { s.servePass(sh, &ps, k) }
			if s.clog != nil {
				appends = s.clog.Stats().Appends
				pass = func() {
					if err := s.clog.Sync(); err != nil {
						t.Fatal(err)
					}
					s.servePass(sh, &ps, k)
				}
			}
			if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
				t.Errorf("%s, a pass owed %d intervals: %v allocs, want 0", mode, k, allocs)
			}
			if s.clog != nil {
				// AllocsPerRun makes one warm-up run, then the 100 it measures.
				if n := s.clog.Stats().Appends - appends; n < 101 {
					t.Errorf("log on, passes owed %d intervals appended %d records over 101 passes, want at least one per pass", k, n)
				}
			}
		}
	}
}

// BenchmarkServePassDurable is the in-process rung of durable's round
// path: one eager servePass over a parked shard of 32 dlruedf router
// tenants with 128 queued rounds each, the checkpoint log at
// CheckpointEvery 1 and its committer at the default interval. ns/round
// is the pass's time per applied round — the allocator, Advance and the
// checkpoints the rule takes — and records/round the records it
// appended per applied round; queueing the rounds is not timed.
func BenchmarkServePassDurable(b *testing.B) {
	const tenants, depth = 32, 128
	s := startServer(b, Config{Shards: 1, RoundInterval: time.Hour,
		CheckpointDir: b.TempDir(), CheckpointEvery: 1})
	ts := make([]*tenant, tenants)
	traces := make([][]sched.Request, tenants)
	for i := range ts {
		inst := testInstance(b, depth, i)
		tc := tcFor(inst)
		tc.QueueCap = depth
		id := fmt.Sprintf("t%02d", i)
		if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: id, Config: tc}); er != nil {
			b.Fatal(er.Msg)
		}
		ts[i], traces[i] = s.tenant(id), inst.Requests
	}
	var ps passState
	appends := s.clog.Stats().Appends
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i, tn := range ts {
			if k, _, _, er := tn.submitBatch(n*depth, traces[i]); er != nil {
				b.Fatalf("%s: queued %d rounds: %s", tn.id, k, er.Msg)
			}
		}
		b.StartTimer()
		s.servePass(s.shards[0], &ps, 0)
	}
	b.StopTimer()
	rounds := float64(b.N * tenants * depth)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rounds, "ns/round")
	b.ReportMetric(float64(s.clog.Stats().Appends-appends)/rounds, "records/round")
}

// TestStatsRespExRoundTrip round-trips a stats row with every field
// set, the cross-tenant scheduling and reservation columns included,
// ahead of the checkpoint-log block.
func TestStatsRespExRoundTrip(t *testing.T) {
	rows := []TenantStats{
		{ID: "a", Policy: "ΔLRU-EDF", Round: 9, NextSeq: 11, Pending: 3, QueueDepth: 2,
			QueueCap: 64, Executed: 100, Dropped: 4, Reconfigs: 7, CostReconfig: 28,
			CostDrop: 4, MaxPending: 12, Overloads: 1, BadSeqs: 2, Checkpoints: 3,
			Weight: 2, MinDelay: 4, ServedRounds: 70, DelayFactor: 0.5,
			MaxDelayFactor: 2.25, ServiceShare: 0.125,
			ReservedRate: 0.25, ReservedDelay: 32, BudgetUtilization: 1.5},
		{ID: "b"},
	}
	counters := DuraStats{Appends: 6, Bytes: 600, Fsyncs: 2, Segments: 1}
	e := snap.NewEncoder()
	encodeStatsResp(e, rows, &counters)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgTenantStats {
		t.Fatalf("type = %d", typ)
	}
	got, st := decodeStatsResp(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != rows[0] || got[1] != rows[1] || !reflect.DeepEqual(st, counters) {
		t.Fatalf("round trip: %+v, %+v", got, st)
	}
}
