package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/snap"
)

func TestNewAllocator(t *testing.T) {
	a, err := NewAllocator("", 0, 0)
	if err != nil || a.Name() != DefaultAllocator {
		t.Fatalf("NewAllocator(\"\") = (%v, %v), want the default %q", a, err, DefaultAllocator)
	}
	w := a.(*wdrrAllocator)
	if w.quantum != 8 || w.escalation != 0.5 {
		t.Fatalf("defaults = (quantum %d, escalation %v), want (8, 0.5)", w.quantum, w.escalation)
	}
	if a, err = NewAllocator("fifo", 0, 0); err != nil || a.Name() != "fifo" {
		t.Fatalf("NewAllocator(fifo) = (%v, %v)", a, err)
	}
	if _, err = NewAllocator("lifo", 0, 0); err == nil {
		t.Fatal("NewAllocator accepted an unknown spec")
	}
	// A server config with a bad spec must fail construction, not serve.
	if _, err = NewServer(Config{Addr: "127.0.0.1:0", Allocator: "lifo"}); err == nil {
		t.Fatal("NewServer accepted an unknown allocator")
	}
}

func TestWDRRPick(t *testing.T) {
	a := &wdrrAllocator{quantum: 8, escalation: 0.5}

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

	// escalation < 0 disables the priority set: deficit rules alone.
	noesc := &wdrrAllocator{quantum: 8, escalation: -1}
	if got := noesc.Pick(loads); got != 0 {
		t.Fatalf("Pick (escalation off) = %d, want 0", got)
	}

	// The quantum scales with weight.
	if q := a.Quantum(TenantLoad{Weight: 3}); q != 24 {
		t.Fatalf("Quantum(weight 3) = %d, want 24", q)
	}
	if q := a.Quantum(TenantLoad{Weight: 0}); q != 8 {
		t.Fatalf("Quantum(weight 0) = %d, want 8", q)
	}

	// fifo always drains the first backlogged tenant completely.
	f := fifoAllocator{}
	if f.Pick(loads) != 0 || f.Quantum(loads[0]) != 0 {
		t.Fatal("fifo must pick index 0 with an unlimited quantum")
	}
}

// runStarvation replays one deterministic starved schedule against a
// server using the named allocator and reports the worst victim
// delay-factor high-water mark. A hot tenant opened first (scan index
// 0) holds a standing backlog; each simulated tick the victims submit
// one round apiece and the test drives one paced allocation pass
// (budget -1 = one round per backlogged tenant), exactly what the
// paced shard worker runs per RoundInterval. The hot tenant's own
// delay factor is self-inflicted and ignored.
func runStarvation(t *testing.T, allocator string) float64 {
	t.Helper()
	const victims, ticks = 4, 40
	// RoundInterval parks the paced worker (first tick is an hour out),
	// so the test owns every allocation pass and the schedule is exact.
	s := startServer(t, Config{Shards: 1, RoundInterval: time.Hour,
		Allocator: allocator, DefaultQueueCap: 1024})
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
		s.servePass(sh, &ps, -1)
	}

	rows, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, r := range rows {
		if r.ID != "hot" && r.MaxDelayFactor > worst {
			worst = r.MaxDelayFactor
		}
	}
	return worst
}

// TestAllocatorStarvation pins the tentpole behavior the skewed
// benchmark measures, deterministically: under fifo a hot tenant's
// standing backlog starves every victim for the whole run, so victim
// delay factors grow with the tick count; under wdrr escalation caps
// them near the threshold. The schedule is identical in both runs.
func TestAllocatorStarvation(t *testing.T) {
	fifo := runStarvation(t, "fifo")
	wdrr := runStarvation(t, "wdrr")
	t.Logf("worst victim delay factor: fifo %.3f, wdrr %.3f", fifo, wdrr)
	if wdrr > 1.0 {
		t.Fatalf("wdrr worst victim delay factor = %.3f, want ≤ 1.0 (escalation must bound victims)", wdrr)
	}
	if fifo < 2*wdrr {
		t.Fatalf("fifo worst victim delay factor %.3f not ≥ 2x wdrr's %.3f", fifo, wdrr)
	}
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
