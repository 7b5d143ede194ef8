package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckptlog"
	"repro/internal/sched"
)

// logTestConfig is a group-commit-log server configuration tuned so a
// short test exercises the whole machinery: every round is
// checkpoint-due and segments rotate after a few KiB, so superseded
// segments are deleted often. Compaction rewrites live records only
// once the sealed segments hold more than twice the live bytes plus four
// segments: a test that needs it pins segments with idle tenants.
func logTestConfig(dir string) Config {
	return Config{
		CheckpointDir:      dir,
		CheckpointEvery:    1,
		CkptCommitInterval: time.Millisecond,
		CkptSegmentBytes:   4 << 10,
	}
}

// logTenants reopens the checkpoint log in dir, which no server may be
// using, and returns the tenants it holds a live record for.
func logTenants(t *testing.T, dir string) []string {
	t.Helper()
	l, err := ckptlog.Open(ckptlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Tenants()
}

// TestCloseTenantLogTombstone pins the CloseTenant durability contract
// in the shared log after a graceful stop (TestCloseTenantCheckpointRace
// pins it across a crash): a closed tenant's records may remain in the
// shared segments, but its tombstone must shadow them — across
// rapid open/submit/close cycles racing the shard worker's appends, a
// restart over the directory recovers zero tenants. CheckpointEvery 1
// keeps a worker appending checkpoints while each close lands, which is
// exactly the race that appending the tombstone under the tenant lock,
// and skipping a closed tenant's checkpoints, guards.
func TestCloseTenantLogTombstone(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1})
	c := dialTest(t, s)
	tc := TenantConfig{Policy: "edf", N: 2, Delta: 2, Delays: []int{8, 8}}
	tick := sched.Request{{Color: 0, Count: 1}}

	for iter := 0; iter < 40; iter++ {
		id := fmt.Sprintf("lt-%02d", iter)
		if _, _, err := c.Open(id, tc); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 8; {
			_, _, err := c.Submit(id, seq, tick)
			switch {
			case err == nil:
				seq++
			case errors.Is(err, ErrOverloaded):
				time.Sleep(50 * time.Microsecond)
			default:
				t.Fatal(err)
			}
		}
		if _, err := c.CloseTenant(id); err != nil {
			t.Fatal(err)
		}
	}
	// Give any straggling shard-worker checkpoint time to lose the race
	// with the tombstones before the restart inspects the log.
	time.Sleep(50 * time.Millisecond)
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	s2 := startServer(t, Config{CheckpointDir: dir})
	if n := s2.NumTenants(); n != 0 {
		t.Fatalf("restart over closed tenants recovered %d tenants, want 0", n)
	}
}

// TestServeLogCompactionRestart drives one tenant through several
// feed → restart cycles over a log squeezed into tiny segments, beside
// idle tenants that each write a few records and then pin the segment
// holding their latest. Pinned segments of churn garbage accumulate
// until compaction rewrites the oldest, so each recovery resolves state
// that compaction has rewritten. The second cycle ends in a crash
// (Close), the others in a graceful Shutdown. Segment 1, pinned by an
// idle tenant opened first and never fed, must be gone; every idle
// tenant must recover at its round after each restart; and the churn
// tenant's drained result must be bit-identical to an uninterrupted
// local replay.
func TestServeLogCompactionRestart(t *testing.T) {
	dir := t.TempDir()
	const cycles, crashCycle = 4, 1
	inst := testInstance(t, 32*cycles, 0)
	tc := tcFor(inst)
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}

	cfg := logTestConfig(dir)
	cfg.CkptSegmentBytes = 2 << 10
	submit := func(c *Client, id string, from, until int) {
		t.Helper()
		for seq := from; seq < until; {
			_, _, err := c.Submit(id, seq, inst.Requests[seq])
			switch {
			case err == nil:
				seq++
			case errors.Is(err, ErrOverloaded):
				time.Sleep(time.Millisecond)
			default:
				t.Fatal(err)
			}
		}
	}
	idle := make(map[string]int) // each idle tenant's round
	checkIdle := func(c *Client, when string) {
		t.Helper()
		for id, round := range idle {
			rows, err := c.Stats(id)
			if err != nil || len(rows) != 1 || rows[0].Round != round {
				t.Fatalf("%s: idle tenant %s = %+v (%v), want it recovered at round %d", when, id, rows, err, round)
			}
		}
	}
	next := 0
	var res *sched.Result
	for cy := 0; cy < cycles; cy++ {
		s := startServer(t, cfg)
		c := dialTest(t, s)
		checkIdle(c, fmt.Sprintf("cycle %d", cy))
		nextSeq, _, err := c.Open("churn", tc)
		if err != nil {
			t.Fatal(err)
		}
		// A crash may lose the churn tenant's unsynced tail, so it resumes
		// where its latest durable record left it.
		if nextSeq != next && (cy != crashCycle+1 || nextSeq > next) {
			t.Fatalf("cycle %d resumed at seq %d, want %d", cy, nextSeq, next)
		}
		until := min(32*(cy+1), len(inst.Requests))
		for seq := nextSeq; seq < until; seq += 8 {
			// An idle tenant: the first is opened and never fed, so its
			// open record pins segment 1; each later one is fed a few
			// rounds and drained, which syncs its latest record.
			id := fmt.Sprintf("idle-%d-%d", cy, seq)
			if _, _, err := c.Open(id, tc); err != nil {
				t.Fatal(err)
			}
			idle[id] = 0
			if len(idle) > 1 {
				submit(c, id, 0, 1+seq%3)
				if _, err := c.DrainTenant(id); err != nil {
					t.Fatal(err)
				}
				rows, err := c.Stats(id)
				if err != nil {
					t.Fatal(err)
				}
				idle[id] = rows[0].Round
			}
			submit(c, "churn", seq, min(seq+8, until))
		}
		// Only the last cycle drains the churn tenant (a drain runs extra
		// empty rounds, so it would shift every later cycle's resume
		// sequence); Shutdown's flush applies the queued ticks and
		// checkpoints the rest.
		if cy == cycles-1 {
			if res, err = c.DrainTenant("churn"); err != nil {
				t.Fatal(err)
			}
		}
		next = until
		if cy == crashCycle {
			err = s.Close()
		} else {
			err = s.Shutdown()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("result after %d compacting restarts differs:\n server %+v\n local  %+v", cycles, res, ref)
	}
	if _, err := os.Stat(filepath.Join(dir, "log-00000001.seg")); !os.IsNotExist(err) {
		t.Fatalf("segment 1, pinned by an idle tenant, was not compacted away (stat err %v)", err)
	}
	s := startServer(t, cfg)
	checkIdle(dialTest(t, s), "after the last cycle")
}

// TestServeLogDeepStateRestart pins a deep-state tenant across a
// restart: long delays keep a deep pending backlog, so each round's full
// record is large. The trace goes in small chunks, each applied — and so
// checkpointed, in the same critical section — before the next is sent;
// a worker starved of CPU could otherwise leave every round to the
// drain's one record. The log must hold a record per chunk, and a
// restart must recover the drained tenant from its latest full record to
// the bit-identical drained result. TestRecoverRefusesOlderDelta covers
// a tenant whose latest record is an older build's delta.
func TestServeLogDeepStateRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := logTestConfig(dir)
	cfg.CkptSegmentBytes = 1 << 20 // no rotation: keep every record in one segment
	s := startServer(t, cfg)
	c := dialTest(t, s)
	delays := []int{64, 64, 64, 64, 64, 64, 64, 64}
	tc := TenantConfig{Policy: "dlruedf", N: 4, Delta: 4, Delays: delays, QueueCap: 256}
	if _, _, err := c.Open("deep", tc); err != nil {
		t.Fatal(err)
	}
	tick := sched.Request{{Color: 0, Count: 2}, {Color: 3, Count: 2}, {Color: 5, Count: 1}}
	const rounds, chunk = 200, 4
	for seq := 0; seq < rounds; {
		for end := seq + chunk; seq < end; seq++ {
			if _, _, err := c.Submit("deep", seq, tick); err != nil {
				t.Fatal(err) // a chunk never fills the 256-round queue
			}
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			rows, err := c.Stats("deep")
			if err != nil {
				t.Fatal(err)
			}
			if rows[0].Round == seq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d not applied after 10s (stats %+v)", seq, rows[0])
			}
		}
	}
	res, err := c.DrainTenant("deep")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.DuraStats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(rounds/chunk + 1); st.Appends < want {
		t.Fatalf("%d records appended for %d applied chunks, want at least %d: %+v", st.Appends, rounds/chunk, want, st)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, cfg)
	c2 := dialTest(t, s2)
	if _, resumed, err := c2.Open("deep", tc); err != nil || !resumed {
		t.Fatalf("open after a deep-state recovery = (resumed %v, %v)", resumed, err)
	}
	res2, err := c2.DrainTenant("deep")
	if err != nil || !resultsEqual(res, res2) {
		t.Fatalf("deep-state recovered result = (%+v, %v), want the drained result %+v", res2, err, res)
	}
}

// TestCheckpointPathAllocFree pins a durable tenant's round path at
// zero allocations: a steady-state Stream.Advance followed by
// logCheckpointLocked — the full record's snapshot into the pooled
// buffer and its append to the log's write buffer — allocates nothing.
// The root package's TestSnapshotAllocFlat pins the snapshot alone.
func TestCheckpointPathAllocFree(t *testing.T) {
	cfg := logTestConfig(t.TempDir())
	cfg.CkptCommitInterval = time.Hour // no committer pass inside the measurement
	cfg.CkptSegmentBytes = 64 << 20    // and no rotation
	s := startServer(t, cfg)
	tc := TenantConfig{Policy: "dlruedf", N: 16, Delta: 4, Delays: []int{2, 8, 4, 16, 2, 8, 4, 16}}
	if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: "hot", Config: tc}); er != nil {
		t.Fatal(er.Msg)
	}
	tn := s.tenant("hot")
	// Unsorted, with a duplicate batch, as perf_test.go's steady stream.
	req := sched.Request{
		{Color: 1, Count: 2}, {Color: 0, Count: 1}, {Color: 3, Count: 1},
		{Color: 5, Count: 2}, {Color: 0, Count: 1}, {Color: 6, Count: 1},
	}
	round := func() {
		if err := tn.st.Advance(req); err != nil {
			t.Fatal(err)
		}
		if err := tn.logCheckpointLocked(tn.st.Round()); err != nil {
			t.Fatal(err)
		}
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	// Warm the stream's scratch, the snapshot buffer and the log's write
	// buffer past what the measured rounds need, then empty the write
	// buffer (Sync keeps its capacity).
	for i := 0; i < 1024; i++ {
		round()
	}
	if err := s.clog.Sync(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(300, round); allocs != 0 {
		t.Fatalf("steady-state Advance + logCheckpointLocked: %v allocs per round, want 0", allocs)
	}
}

// ruleServer starts a server on whose checkpoint log nothing flushes by
// itself — no committer pass within a test, segments too large to
// rotate — with one parked shard, so the test's own servePass calls are
// the only picks, and CheckpointEvery 1, so every pick that applies a
// round makes a checkpoint due. It opens tenant "r" over a 4,096-round
// router trace with a queue that holds all of it. The open's Sync has
// flushed the open's record, so the first due checkpoint goes ahead.
func ruleServer(t *testing.T) (*Server, *tenant, *sched.Instance) {
	t.Helper()
	cfg := logTestConfig(t.TempDir())
	cfg.CkptCommitInterval = time.Hour
	cfg.CkptSegmentBytes = 64 << 20
	cfg.Shards, cfg.RoundInterval = 1, time.Hour
	s := startServer(t, cfg)
	inst := testInstance(t, 4096, 0)
	tc := tcFor(inst)
	tc.QueueCap = len(inst.Requests)
	if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: "r", Config: tc}); er != nil {
		t.Fatal(er.Msg)
	}
	return s, s.tenant("r"), inst
}

// queue admits ticks into tn's queue from sequence seq.
func queue(t *testing.T, tn *tenant, seq int, ticks []sched.Request) {
	t.Helper()
	if n, _, _, er := tn.submitBatch(seq, ticks); er != nil {
		t.Fatalf("queued %d of %d rounds: %s", n, len(ticks), er.Msg)
	}
}

// TestCheckpointRuleBacklog: one eager pass over a tenant with 4,096
// queued rounds picks it 512 times, 8 rounds each, and with no log
// flush in between appends at most two records: at the first pick,
// whose previous record the open's Sync flushed, and at the last, which
// empties the queue and so leaves the tenant's record current. A
// checkpoint at every due pick appended 512.
func TestCheckpointRuleBacklog(t *testing.T) {
	s, tn, inst := ruleServer(t)
	queue(t, tn, 0, inst.Requests)
	before := s.clog.Stats().Appends
	var ps passState
	s.servePass(s.shards[0], &ps, 0)
	appended := s.clog.Stats().Appends - before
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if r := tn.st.Round(); r != len(inst.Requests) {
		t.Fatalf("the pass applied %d of %d rounds", r, len(inst.Requests))
	}
	if appended > 2 {
		t.Fatalf("one pass over a %d-round backlog appended %d records, want at most 2", len(inst.Requests), appended)
	}
	if tn.lastCkpt != tn.st.Round() {
		t.Fatalf("latest record at round %d after the queue emptied at round %d", tn.lastCkpt, tn.st.Round())
	}
}

// TestCheckpointRuleFlush: a due checkpoint of a backlogged tenant is
// taken once the log has flushed since the tenant's previous record. A
// paced pass owed 8 intervals over one backlogged tenant is one pick of
// 8 rounds; the queue never empties, so only the flush decides: the
// first pick appends (the open's Sync flushed), the next does not, and
// after a Sync the next one appends again.
func TestCheckpointRuleFlush(t *testing.T) {
	s, tn, inst := ruleServer(t)
	queue(t, tn, 0, inst.Requests[:64])
	var ps passState
	for i, step := range []struct {
		sync bool
		want int64
	}{{false, 1}, {false, 0}, {true, 1}, {false, 0}} {
		if step.sync {
			if err := s.clog.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		before := s.clog.Stats().Appends
		s.servePass(s.shards[0], &ps, 8)
		if got := s.clog.Stats().Appends - before; got != step.want {
			t.Fatalf("pick %d (Sync before it: %v) appended %d records, want %d", i+1, step.sync, got, step.want)
		}
		if r := tn.stats().Round; r != 8*(i+1) {
			t.Fatalf("pick %d left the stream at round %d, want %d", i+1, r, 8*(i+1))
		}
	}
}

// TestCheckpointRuleQueueEmpty: a pick that empties the tenant's queue
// takes its due checkpoint whether or not the log has flushed, so a
// one-round submit is recorded as soon as it is applied.
func TestCheckpointRuleQueueEmpty(t *testing.T) {
	s, tn, inst := ruleServer(t)
	var ps passState
	for seq := 0; seq < 4; seq++ {
		queue(t, tn, seq, inst.Requests[seq:seq+1])
		before := s.clog.Stats().Appends
		s.servePass(s.shards[0], &ps, 0)
		if got := s.clog.Stats().Appends - before; got != 1 {
			t.Fatalf("applying one-round submit %d appended %d records, want 1", seq, got)
		}
		tn.mu.Lock()
		r, last := tn.st.Round(), tn.lastCkpt
		tn.mu.Unlock()
		if r != seq+1 || last != r {
			t.Fatalf("after submit %d: stream at round %d, latest record at round %d; want both %d", seq, r, last, seq+1)
		}
	}
}

// TestServeCrashRestartLogSegments is the crash-mid-load harness
// (restartLoad, 64 tenants, rrload-style verification) over the log
// backend under duress: every round checkpoint-due, segments a few KiB
// so the crash lands amid rotation and compaction, and a 1ms group
// commit. Close abandons the unsynced tail — the crash analogue — and
// recovery must still hand every driver a consistent resume point, with
// all 64 final results bit-identical to local replays.
func TestServeCrashRestartLogSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	cfg := logTestConfig(t.TempDir())
	rep := restartLoad(t, cfg, (*Server).Close)
	if want := int64(64*80) - 64; rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestServeCrashRestartDeferredCheckpoints is the crash-mid-load
// harness (restartLoad) over logTestConfig — every round
// checkpoint-due, a 1ms group commit, 4 KiB segments — with queues deep
// enough that the checkpoint rule defers: four tenants, few enough that
// a tenant's next pick usually comes before the log has flushed its
// previous record, each pipelining 8 frames of 128 rounds into a queue
// that holds them all. Every final result must still be bit-identical
// to a local replay. At the crash the log must have rotated at least
// once, and the rows must hold fewer records, beyond each tenant's open
// record, than an eighth of the rounds applied: a pick applies at most
// one quantum of 8 rounds, so a record at every due pick would be at
// least that many. On a 2-vCPU host under -race, at -cpu 1 and 2 with
// other tests running, the records read 0.14–0.20 of that bound.
func TestServeCrashRestartDeferredCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	const tenants, window, batch = 4, 8, 128
	var applied, records, rotations int64
	crash := func(s *Server) error {
		for _, tn := range s.tenantList() {
			row := tn.stats()
			applied += int64(row.Round)
			records += row.Checkpoints - 1 // less the open's record
		}
		rotations = s.clog.Stats().Rotations
		return s.Close()
	}
	rep := restartLoad(t, logTestConfig(t.TempDir()), crash, func(lc *LoadConfig) {
		lc.Tenants = tenants
		lc.Params.Rounds = 1600
		lc.Rate = 2400 // ~670ms of paced submits per tenant, as restartLoad's default
		lc.Pipeline, lc.Batch = window, batch
		lc.QueueCap = window * batch
	})
	t.Logf("at the crash: %d rounds applied, %d periodic records, %d rotations", applied, records, rotations)
	if rotations == 0 {
		t.Fatal("no segment rotated before the crash")
	}
	if records*defaultQuantum >= applied {
		t.Fatalf("%d periodic records for %d applied rounds: no fewer than one per %d-round pick, so no checkpoint was deferred",
			records, applied, defaultQuantum)
	}
	if want := int64(tenants*1600 - tenants*window*batch); rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestDrainFailsWhenLogSyncFails pins the drain acknowledgement as a
// durability point: when the checkpoint log cannot sync, the drain is
// answered with an internal error rather than acknowledged.
func TestDrainFailsWhenLogSyncFails(t *testing.T) {
	inst := testInstance(t, 16, 0)
	s := startServer(t, logTestConfig(t.TempDir()))
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("d", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "d", inst, 0)
	if _, err := c.DrainTenant("d"); err != nil {
		t.Fatalf("drain over a healthy log: %v", err)
	}
	s.clog.Abort() // every later sync fails
	var re *RemoteError
	if _, err := c.DrainTenant("d"); !errors.As(err, &re) || re.Code != codeInternal {
		t.Fatalf("drain over a failed log = %v, want codeInternal", err)
	}
}

// TestCloseFailsWhenLogFails pins close-tenant as a durability point:
// the tombstone is the only record that removes a tenant, so when the
// log cannot take it the close is answered with an internal error, the
// tenant stays live, and a restart recovers it.
func TestCloseFailsWhenLogFails(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 16, 0)
	s := startServer(t, logTestConfig(dir))
	c := dialTest(t, s)
	if _, _, err := c.Open("a", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "a", inst, 0)
	if _, err := c.DrainTenant("a"); err != nil {
		t.Fatal(err)
	}
	s.clog.Abort() // every later append and sync fails
	var re *RemoteError
	if _, err := c.CloseTenant("a"); !errors.As(err, &re) || re.Code != codeInternal {
		t.Fatalf("close over a failed log = %v, want codeInternal", err)
	}
	if rows, err := c.Stats(""); err != nil || len(rows) != 1 || rows[0].ID != "a" {
		t.Fatalf("stats after the failed close = %+v (%v), want a row for a", rows, err)
	}
	s.Close()
	s2 := startServer(t, logTestConfig(dir))
	if s2.tenant("a") == nil {
		t.Fatalf("restart recovered %d tenants, want a", s2.NumTenants())
	}
}

// TestClosedTenantTakesNoCheckpoint pins the one-lock checkpoint path:
// a shard worker still holding a tenant that close removed takes no
// checkpoint, so nothing lands behind the tombstone. Periodic
// checkpoints are off, and one tick stuffed into the closed tenant's
// queue by hand moves its stream past the last record; the late flush
// stands in for a worker pass that raced the close. A late checkpoint
// would be a full record, which would make the tenant live again.
func TestClosedTenantTakesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 16, 0)
	s := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1 << 30})
	c := dialTest(t, s)
	if _, _, err := c.Open("gone", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "gone", inst, 0)
	tn := s.tenant("gone")
	if _, err := c.CloseTenant("gone"); err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	round := tn.st.Round()
	tn.queue = append(tn.queue, nil)
	tn.mu.Unlock()
	tn.flush()
	if tn.st.Round() != round+1 {
		t.Fatal("the late flush applied no round, so the test pins nothing")
	}
	if err := s.Shutdown(); err != nil { // commits anything appended
		t.Fatal(err)
	}
	if ids := logTenants(t, dir); len(ids) != 0 {
		t.Fatalf("closed tenant %v live again in the reopened log", ids)
	}
}

// TestFailedLogReportedOnce: once the checkpoint log takes no more
// writes, a tenant stops checkpointing, so the failure is logged once
// per tenant instead of once per applied round, and a drain is still
// refused.
func TestFailedLogReportedOnce(t *testing.T) {
	ids := []string{"f0", "f1"}
	var mu sync.Mutex
	lines := make(map[string]int)
	cfg := logTestConfig(t.TempDir())
	cfg.Logf = func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		mu.Lock()
		defer mu.Unlock()
		for _, id := range ids {
			if strings.Contains(msg, "tenant "+id+": checkpoint") {
				lines[id]++
			}
		}
	}
	s := startServer(t, cfg)
	c := dialTest(t, s)
	inst := testInstance(t, 64, 0)
	for _, id := range ids {
		if _, _, err := c.Open(id, tcFor(inst)); err != nil {
			t.Fatal(err)
		}
	}
	s.clog.Abort()
	for _, id := range ids {
		feed(t, c, id, inst, 0)
		var re *RemoteError
		if _, err := c.DrainTenant(id); !errors.As(err, &re) || re.Code != codeInternal {
			t.Fatalf("drain of %s over a failed log = %v, want codeInternal", id, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if lines[id] > 1 {
			t.Errorf("tenant %s logged %d checkpoint lines over a failed log, want at most 1", id, lines[id])
		}
	}
}
