package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// syncBatch sends one batch through a window-1 pipeline — the
// synchronous exchange — and returns its acknowledgement.
func syncBatch(t *testing.T, c *Client, tenant string, seq int, ticks []sched.Request) SubmitResult {
	t.Helper()
	var ack SubmitResult
	acks := 0
	if err := c.NewPipeline(1, func(r SubmitResult) { ack = r; acks++ }).SubmitBatch(tenant, seq, ticks); err != nil {
		t.Fatalf("batch at %d: %v", seq, err)
	}
	if acks != 1 || len(c.infl) != 0 {
		t.Fatalf("window-1 batch at %d returned with %d acks and %d frames in flight, want 1 and 0", seq, acks, len(c.infl))
	}
	return ack
}

// TestSubmitBatchRoundTrip feeds a whole trace through a window-1
// pipeline in uneven batches and requires the drained result to be
// bit-identical to a local replay — batching must change framing only,
// never scheduling.
func TestSubmitBatchRoundTrip(t *testing.T) {
	inst := testInstance(t, 64, 0)
	s := startServer(t, Config{DefaultQueueCap: 256})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("alpha", tc); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < len(inst.Requests); {
		k := min(7, len(inst.Requests)-seq) // uneven: final chunk is short
		ack := syncBatch(t, c, "alpha", seq, inst.Requests[seq:seq+k])
		admitted, err := ack.Admitted, ack.Err
		switch {
		case err == nil:
			if admitted != k {
				t.Fatalf("batch at %d admitted %d of %d with nil error", seq, admitted, k)
			}
			seq += k
		case errors.Is(err, ErrOverloaded):
			seq += admitted
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("batch at %d: %v", seq, err)
		}
	}
	res, err := c.DrainTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("batched result differs from local replay:\n server %+v\n local  %+v", res, ref)
	}
}

// TestSubmitBatchPartialAdmit pins the ack-vector contract: with round
// application frozen, a batch crossing the queue cap admits exactly the
// prefix that fits and names the shed round via ErrOverloaded; a batch
// at the wrong sequence admits nothing and names the resume point.
func TestSubmitBatchPartialAdmit(t *testing.T) {
	inst := testInstance(t, 16, 0)
	s := startServer(t, Config{RoundInterval: time.Hour}) // nothing applies
	c := dialTest(t, s)
	tc := tcFor(inst)
	tc.QueueCap = 4
	if _, _, err := c.Open("hot", tc); err != nil {
		t.Fatal(err)
	}

	r := syncBatch(t, c, "hot", 0, inst.Requests[:8])
	if r.Admitted != 4 || r.Depth != 4 || !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("batch past cap = (admitted %d, depth %d, %v), want (4, 4, ErrOverloaded)", r.Admitted, r.Depth, r.Err)
	}

	// Resubmitting from the shed round: still full, nothing admitted.
	r = syncBatch(t, c, "hot", 4, inst.Requests[4:8])
	if r.Admitted != 0 || !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("refill while full = (admitted %d, %v), want (0, ErrOverloaded)", r.Admitted, r.Err)
	}

	// A batch at the wrong sequence is rejected before admitting anything.
	var bs *BadSeqError
	r = syncBatch(t, c, "hot", 9, inst.Requests[9:12])
	if r.Admitted != 0 || !errors.As(r.Err, &bs) || bs.Got != r.Seq || bs.Expected != 4 {
		t.Fatalf("bad-seq batch = (admitted %d, %v), want (0, BadSeq got %d expected 4)", r.Admitted, r.Err, r.Seq)
	}

	// A mid-batch sequence jump splits the batch: the prefix before the
	// jump is admitted (queue has room again after nothing applied — use
	// a batch overlapping the expected point instead).
	r = syncBatch(t, c, "hot", 3, inst.Requests[3:6])
	if r.Admitted != 0 || !errors.As(r.Err, &bs) || bs.Expected != 4 {
		t.Fatalf("duplicate-prefix batch = (admitted %d, %v), want (0, BadSeq expected 4)", r.Admitted, r.Err)
	}

	// The server counted the rejections for observability.
	rows, err := c.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].QueueDepth != 4 || rows[0].BadSeqs == 0 || rows[0].Overloads == 0 {
		t.Fatalf("stats after rejected batches = %+v", rows[0])
	}
}

// TestPipelinedSubmit drives one tenant's whole trace through a
// pipelined window (mixing batches of one and of five), then verifies
// the acknowledgement stream accounted for every round exactly once and
// the drained result is bit-identical to a local replay.
func TestPipelinedSubmit(t *testing.T) {
	inst := testInstance(t, 96, 0)
	s := startServer(t, Config{DefaultQueueCap: 256})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("alpha", tc); err != nil {
		t.Fatal(err)
	}

	var ackedRounds, acks int
	pl := c.NewPipeline(8, func(r SubmitResult) {
		acks++
		if r.Tenant != "alpha" {
			t.Errorf("ack for tenant %q", r.Tenant)
		}
		if r.Err != nil {
			t.Errorf("ack for [%d,%d) rejected: %v", r.Seq, r.Seq+r.Rounds, r.Err)
		}
		if r.Admitted != r.Rounds {
			t.Errorf("ack for [%d,%d) admitted %d", r.Seq, r.Seq+r.Rounds, r.Admitted)
		}
		if r.RTT <= 0 {
			t.Errorf("ack missing RTT: %+v", r)
		}
		ackedRounds += r.Admitted
	})
	for seq := 0; seq < len(inst.Requests); {
		var err error
		if seq%3 == 0 { // mix frame sizes in one window
			err = pl.SubmitBatch("alpha", seq, inst.Requests[seq:seq+1])
			seq++
		} else {
			k := min(5, len(inst.Requests)-seq)
			err = pl.SubmitBatch("alpha", seq, inst.Requests[seq:seq+k])
			seq += k
		}
		if err != nil {
			t.Fatalf("stage at %d: %v", seq, err)
		}
	}
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(c.infl) != 0 {
		t.Fatalf("%d frames in flight after flush", len(c.infl))
	}
	if ackedRounds != len(inst.Requests) {
		t.Fatalf("acks covered %d rounds in %d acks, want %d", ackedRounds, acks, len(inst.Requests))
	}

	// The window is empty, so the same connection serves synchronous
	// calls again.
	res, err := c.DrainTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("pipelined result differs from local replay:\n server %+v\n local  %+v", res, ref)
	}
}

// TestPipelinedRejections pins rejection delivery through the window:
// with rounds frozen and the queue cap below the in-flight depth, the
// first over-cap frame is shed with ErrOverloaded and the frames behind
// it bounce with BadSeq naming the same resume point — the client-side
// picture a resync needs.
func TestPipelinedRejections(t *testing.T) {
	inst := testInstance(t, 16, 0)
	s := startServer(t, Config{RoundInterval: time.Hour})
	c := dialTest(t, s)
	tc := tcFor(inst)
	tc.QueueCap = 3
	if _, _, err := c.Open("hot", tc); err != nil {
		t.Fatal(err)
	}

	var results []SubmitResult
	pl := c.NewPipeline(8, func(r SubmitResult) { results = append(results, r) })
	for seq := 0; seq < 8; seq++ {
		if err := pl.SubmitBatch("hot", seq, inst.Requests[seq:seq+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d acks, want 8", len(results))
	}
	for i, r := range results {
		switch {
		case i < 3:
			if r.Err != nil || r.Admitted != 1 {
				t.Fatalf("ack %d = %+v, want admitted", i, r)
			}
		case i == 3:
			if !errors.Is(r.Err, ErrOverloaded) {
				t.Fatalf("ack %d err = %v, want ErrOverloaded", i, r.Err)
			}
		default:
			var bs *BadSeqError
			if !errors.As(r.Err, &bs) || bs.Expected != 3 {
				t.Fatalf("ack %d err = %v, want BadSeq expected 3", i, r.Err)
			}
		}
	}
}

// TestOpenVersionNegotiation: the server speaks exactly
// ProtocolVersion. An open one version either side of it is refused
// with codeBadVersion before any state is created, while the same
// request at ProtocolVersion is accepted.
func TestOpenVersionNegotiation(t *testing.T) {
	s := startServer(t, Config{})
	tc := tcFor(testInstance(t, 4, 0))
	send := func(version int, tenant string) error {
		var r openResp
		return dialTest(t, s).call(msgOpen,
			(&openMsg{Version: version, Tenant: tenant, Config: tc}).encode, r.decode)
	}
	var re *RemoteError
	for _, v := range []int{ProtocolVersion - 1, ProtocolVersion + 1} {
		if err := send(v, "skewed"); !errors.As(err, &re) || re.Code != codeBadVersion {
			t.Fatalf("open at version %d = %v, want codeBadVersion", v, err)
		}
	}
	if s.tenant("skewed") != nil {
		t.Fatal("an open at the wrong protocol version created a tenant")
	}
	if err := send(ProtocolVersion, "opened"); err != nil {
		t.Fatalf("open at ProtocolVersion = %v, want accepted", err)
	}
}

// TestServeLoadPipelined is TestServeLoad through the pipelined driver:
// the window plus batching must deliver every round exactly once (the
// ack accounting is exact when no restart intervenes) and the results
// stay bit-identical to local replays.
func TestServeLoadPipelined(t *testing.T) {
	s := startServer(t, Config{})
	rep, err := RunLoad(LoadConfig{
		Addr:     s.Addr().String(),
		Tenants:  32,
		Params:   workload.Params{Rounds: 60, Seed: 11},
		Pipeline: 16,
		Batch:    8,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results: %v", rep.Mismatches)
	}
	// No restart: every trace round is admitted exactly once and every
	// acknowledgement is reaped, so the count is exact even through
	// overload resyncs.
	if want := int64(32 * 60); rep.RoundsSent != want {
		t.Fatalf("RoundsSent = %d, want %d (overloads %d, resumes %d)",
			rep.RoundsSent, want, rep.Overloads, rep.Resumes)
	}
	if rep.Pipeline != 16 || rep.Batch != 8 {
		t.Fatalf("report mode = (%d, %d), want (16, 8)", rep.Pipeline, rep.Batch)
	}
	if rep.Latency.N == 0 {
		t.Fatalf("report missing latency: %+v", rep)
	}
}

// TestServeLoadPacedPipelined pins the paced pipelined driver: a frame
// leaves the client when it is staged, not when the window fills. At 120
// rounds/s with a window of 8 frames of 4 rounds, a frame held in the
// write buffer until the window filled would wait about 8×4 pacing
// intervals (~266ms) for its acknowledgement; flushed before each pacing
// sleep, it is acknowledged well within one interval (1/120 s).
func TestServeLoadPacedPipelined(t *testing.T) {
	s := startServer(t, Config{})
	rep, err := RunLoad(LoadConfig{
		Addr:     s.Addr().String(),
		Tenants:  4,
		Params:   workload.Params{Rounds: 40, Seed: 11},
		Rate:     120,
		Pipeline: 8,
		Batch:    4,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results: %v", rep.Mismatches)
	}
	if want := int64(4 * 40); rep.RoundsSent != want {
		t.Fatalf("RoundsSent = %d, want %d", rep.RoundsSent, want)
	}
	if interval := 1000.0 / 120; rep.Latency.P50 >= interval {
		t.Fatalf("paced pipelined p50 submit latency %.3fms, want under one pacing interval (%.3fms)", rep.Latency.P50, interval)
	}
}

// TestPipelineRejectsOversizedBatch: client-side guard mirrors the
// server's MaxBatch bound, for a window of one as for a deeper window.
func TestPipelineRejectsOversizedBatch(t *testing.T) {
	inst := testInstance(t, 4, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	if _, _, err := c.Open("a", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	huge := make([]sched.Request, MaxBatch+1)
	for _, window := range []int{1, 4} {
		if err := c.NewPipeline(window, nil).SubmitBatch("a", 0, huge); err == nil {
			t.Fatalf("window-%d SubmitBatch accepted a batch past MaxBatch", window)
		}
	}
	// The guard fired client-side: the connection is still healthy.
	if _, _, err := c.Submit("a", 0, inst.Requests[0]); err != nil {
		t.Fatalf("connection poisoned by rejected oversize batch: %v", err)
	}
}
