package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckptlog"
	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/workload"
)

// startServer boots a server on a loopback port and serves until the
// test ends.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s
}

// tenant returns the table's entry for id, nil when there is none.
func (s *Server) tenant(id string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[id]
}

func dialTest(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testInstance(t testing.TB, rounds int, tenant int) *sched.Instance {
	t.Helper()
	inst, err := workload.Tenant("router", workload.Params{Rounds: rounds, Seed: 7}, tenant)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func tcFor(inst *sched.Instance) TenantConfig {
	return TenantConfig{Policy: "dlruedf", N: 8, Delta: inst.Delta, Delays: inst.Delays}
}

// feed submits inst's whole trace starting at seq from, waiting out any
// overload shedding.
func feed(t *testing.T, c *Client, id string, inst *sched.Instance, from int) {
	t.Helper()
	for seq := from; seq < len(inst.Requests); {
		_, _, err := c.Submit(id, seq, inst.Requests[seq])
		switch {
		case err == nil:
			seq++
		case errors.Is(err, ErrOverloaded):
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("submit %s seq %d: %v", id, seq, err)
		}
	}
}

func TestServerRoundTrip(t *testing.T) {
	inst := testInstance(t, 64, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)

	next, resumed, err := c.Open("alpha", tc)
	if err != nil || next != 0 || resumed {
		t.Fatalf("open = (%d, %v, %v), want (0, false, nil)", next, resumed, err)
	}
	// Re-opening with the same configuration re-attaches.
	if _, resumed, err = c.Open("alpha", tc); err != nil || !resumed {
		t.Fatalf("re-open = (resumed %v, %v), want (true, nil)", resumed, err)
	}
	// A conflicting configuration is rejected.
	bad := tc
	bad.N = 4
	if _, _, err = c.Open("alpha", bad); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("conflicting open = %v, want ErrTenantExists", err)
	}

	feed(t, c, "alpha", inst, 0)

	rows, err := c.Stats("alpha")
	if err != nil || len(rows) != 1 {
		t.Fatalf("stats = (%d rows, %v)", len(rows), err)
	}
	if rows[0].NextSeq != len(inst.Requests) {
		t.Fatalf("NextSeq = %d, want %d", rows[0].NextSeq, len(inst.Requests))
	}
	if rows[0].QueueCap != 64 { // server default
		t.Fatalf("QueueCap = %d, want 64", rows[0].QueueCap)
	}
	if rows[0].Weight != 1 || rows[0].MinDelay <= 0 { // weight 0 selects 1
		t.Fatalf("Weight = %d, MinDelay = %d, want 1 and > 0", rows[0].Weight, rows[0].MinDelay)
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
		t.Fatalf("drained result differs from local replay:\n server %+v\n local  %+v", res, ref)
	}
	// Draining again is a no-op returning the identical result, so a
	// client retrying a drain whose ack was lost cannot skew anything.
	res2, err := c.DrainTenant("alpha")
	if err != nil || !resultsEqual(res, res2) {
		t.Fatalf("re-drain = (%+v, %v), want the same result", res2, err)
	}
	if rows, err := c.Stats(""); err != nil || len(rows) != 1 {
		t.Fatalf("all-tenant stats = (%d rows, %v), want 1 row", len(rows), err)
	}

	final, err := c.CloseTenant("alpha")
	if err != nil || !resultsEqual(res, final) {
		t.Fatalf("close = (%+v, %v), want the drained result", final, err)
	}
	if _, err := c.Stats("alpha"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("stats after close = %v, want ErrUnknownTenant", err)
	}
}

// TestStatsMaxPending pins the stats row's backlog high-water mark: a
// served trace must report the MaxPending a CounterSink records on a
// local replay of the same trace, drain included.
func TestStatsMaxPending(t *testing.T) {
	inst := testInstance(t, 64, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("alpha", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "alpha", inst, 0)
	if _, err := c.DrainTenant("alpha"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Stats("alpha")
	if err != nil {
		t.Fatal(err)
	}

	pol, err := NewPolicy(tc.Policy)
	if err != nil {
		t.Fatal(err)
	}
	var sink sched.CounterSink
	st, err := sched.NewStream(pol, sched.StreamConfig{N: tc.N, Delta: inst.Delta, Delays: inst.Delays, Probe: &sink})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range inst.Requests {
		if _, err := st.Step(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	if sink.MaxPending == 0 {
		t.Fatal("the replay never had a backlog; the trace pins nothing")
	}
	if rows[0].MaxPending != sink.MaxPending {
		t.Fatalf("served MaxPending = %d, local replay's CounterSink = %d", rows[0].MaxPending, sink.MaxPending)
	}
}

// TestMaxDelayFactorSampledWithoutAdmits is the regression pin for the
// admission-only sampling bug: a queue that sits deep while the paced
// worker is parked must surface in MaxDelayFactor on a stats read even
// when no submit ever observed that depth.
func TestMaxDelayFactorSampledWithoutAdmits(t *testing.T) {
	s := startServer(t, Config{Shards: 1, RoundInterval: time.Hour})
	c := dialTest(t, s)
	if _, _, err := c.Open("deep", TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}); err != nil {
		t.Fatal(err)
	}
	// Stuff the queue directly — depth that arrived without admission
	// sampling (the allocator starvation tests build backlog the same
	// way). minDelay is 2, so 8 queued ticks mean a delay factor of 4.
	tn := s.tenant("deep")
	tn.mu.Lock()
	for i := 0; i < 8; i++ {
		tn.queue = append(tn.queue, nil)
	}
	tn.mu.Unlock()
	rows, err := c.Stats("deep")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].MaxDelayFactor; got < 4 {
		t.Fatalf("MaxDelayFactor = %v, want >= 4 (stats read must sample the live depth)", got)
	}
	// The allocator's load probe samples too: drain the queue by hand
	// and push deeper, then check the probe path alone records it.
	tn.mu.Lock()
	for i := 0; i < 4; i++ {
		tn.queue = append(tn.queue, nil)
	}
	tn.mu.Unlock()
	if _, ok := tn.load(); !ok {
		t.Fatal("load probe saw no backlog")
	}
	tn.mu.Lock()
	hw := tn.maxDelayFactor
	tn.mu.Unlock()
	if hw < 6 {
		t.Fatalf("maxDelayFactor after load probe = %v, want >= 6", hw)
	}
}

// TestMaxTenantsSkipsTombstones: MaxTenants bounds live tenants, so a
// closed tenant, tombstoned in the checkpoint log, holds no slot. A
// server at its limit opens a new tenant in a closed one's place, while
// a third live tenant, new or a closed ID re-opened, is still refused.
func TestMaxTenantsSkipsTombstones(t *testing.T) {
	s := startServer(t, Config{MaxTenants: 2, CheckpointDir: t.TempDir()})
	c := dialTest(t, s)
	tc := tcFor(testInstance(t, 8, 0))
	for _, id := range []string{"a", "b"} {
		if _, _, err := c.Open(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Open("c", tc); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("open of a third live tenant = %v, want ErrOverloaded", err)
	}
	if _, err := c.CloseTenant("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open("c", tc); err != nil {
		t.Fatalf("open beside a tombstone at the limit: %v", err)
	}
	if n := s.NumTenants(); n != 2 {
		t.Fatalf("NumTenants = %d, want 2", n)
	}
	for _, id := range []string{"a", "d"} {
		if _, _, err := c.Open(id, tc); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("open of %s as a third live tenant = %v, want ErrOverloaded", id, err)
		}
	}
}

// TestServiceShareSkipsClosed: a closed tenant's rounds left with it, so
// a survivor's ServiceShare must read the same from its single-tenant
// row as from its row among all tenants.
func TestServiceShareSkipsClosed(t *testing.T) {
	s := startServer(t, Config{})
	c := dialTest(t, s)
	for i, id := range []string{"a", "b"} {
		inst := testInstance(t, 16, i)
		if _, _, err := c.Open(id, tcFor(inst)); err != nil {
			t.Fatal(err)
		}
		feed(t, c, id, inst, 0)
		if _, err := c.DrainTenant(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CloseTenant("a"); err != nil {
		t.Fatal(err)
	}
	one, err := c.Stats("b")
	if err != nil {
		t.Fatal(err)
	}
	all, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != "b" {
		t.Fatalf("all-tenant rows after the close = %+v, want only b", all)
	}
	if one[0].ServiceShare != all[0].ServiceShare || one[0].ServiceShare != 1 {
		t.Fatalf("b's ServiceShare = %v alone, %v among all tenants; want 1 in both", one[0].ServiceShare, all[0].ServiceShare)
	}
}

func TestServerRejections(t *testing.T) {
	inst := testInstance(t, 8, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)

	var re *RemoteError
	if _, _, err := c.Submit("ghost", 0, nil); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("submit to unknown tenant = %v", err)
	}
	if _, err := c.DrainTenant("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("drain unknown tenant = %v", err)
	}
	badPol := tc
	badPol.Policy = "no-such-policy"
	if _, _, err := c.Open("a", badPol); !errors.As(err, &re) || re.Code != codeBadPolicy {
		t.Fatalf("open bad policy = %v", err)
	}
	if _, _, err := c.Open("no/slashes", tc); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("open bad tenant ID = %v", err)
	}
	badCfg := tc
	badCfg.N = -3
	if _, _, err := c.Open("a", badCfg); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("open bad config = %v", err)
	}
	for _, w := range []int{-1, maxTenantWeight + 1} {
		heavy := tc
		heavy.Weight = w
		if _, _, err := c.Open("a", heavy); !errors.As(err, &re) || re.Code != codeBadRequest {
			t.Fatalf("open with weight %d = %v, want codeBadRequest", w, err)
		}
	}

	if _, _, err := c.Open("a", tc); err != nil {
		t.Fatal(err)
	}
	// Out-of-sequence submits carry the resume point both ways, and the
	// sequence they were sent at.
	var bs *BadSeqError
	if _, _, err := c.Submit("a", 5, nil); !errors.As(err, &bs) || bs.Got != 5 || bs.Expected != 0 ||
		!strings.Contains(err.Error(), "sequence 5,") {
		t.Fatalf("future seq = %v (%+v)", err, bs)
	}
	if _, _, err := c.Submit("a", 0, inst.Requests[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit("a", 0, inst.Requests[0]); !errors.As(err, &bs) || bs.Expected != 1 {
		t.Fatalf("duplicate seq = %v", err)
	}
	// Arrivals are validated at admission: color out of range.
	if _, _, err := c.Submit("a", 1, sched.Request{{Color: 99, Count: 1}}); !errors.As(err, &re) || re.Code != codeInvalidArrival {
		t.Fatalf("invalid arrival = %v", err)
	}
	// A count past the cap: these two batches would merge to a negative
	// count, and the tick's jobs would vanish.
	if _, _, err := c.Submit("a", 1, sched.Request{{Color: 0, Count: 1 << 62}, {Color: 0, Count: 1 << 62}}); !errors.As(err, &re) || re.Code != codeInvalidArrival {
		t.Fatalf("arrival counts past the cap = %v", err)
	}
}

// TestOpenRefusesUnrunnableConfig: an open whose configuration the
// policy or the round engine cannot run gets codeBadRequest and installs
// nothing, and every other open steps. For N from 1 to 8 under every
// policy spec, each open is one or the other — ΔLRU-EDF needs N
// divisible by 4, and a replicated cache an even N. An N past the cap
// and a delay bound of MaxInt, whose deadlines r + D_c would overflow,
// are refused the same way. The server serves on after all of them.
func TestOpenRefusesUnrunnableConfig(t *testing.T) {
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tick := sched.Request{{Color: 0, Count: 1}, {Color: 2, Count: 2}}
	refused := func(id string, err error) {
		t.Helper()
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != codeBadRequest {
			t.Fatalf("open of %s = %v, want codeBadRequest", id, err)
		}
		if s.tenant(id) != nil {
			t.Fatalf("refused open of %s installed the tenant", id)
		}
	}
	for _, spec := range PolicySpecs() {
		for n := 1; n <= 8; n++ {
			id := fmt.Sprintf("%s-%d", spec, n)
			if _, _, err := c.Open(id, TenantConfig{Policy: spec, N: n, Delta: 4, Delays: []int{2, 4, 8}}); err != nil {
				refused(id, err)
				continue
			}
			for seq := 0; seq < 32; seq++ {
				if _, _, err := c.Submit(id, seq, tick); err != nil {
					t.Fatalf("%s: submit %d: %v", id, seq, err)
				}
			}
			if res, err := c.DrainTenant(id); err != nil || res.Rounds < 32 {
				t.Fatalf("%s: drain = (%+v, %v), want at least 32 rounds", id, res, err)
			}
		}
	}
	for id, tc := range map[string]TenantConfig{
		"max-delay": {Policy: "edf", N: 4, Delta: 4, Delays: []int{math.MaxInt}},
		"huge-n":    {Policy: "edf", N: 1 << 23, Delta: 4, Delays: []int{2}},
	} {
		_, _, err := c.Open(id, tc)
		refused(id, err)
	}
	if _, err := c.Stats(""); err != nil {
		t.Fatalf("stats after the refused opens: %v", err)
	}
}

// TestServerOverload pins the admission-control contract: with round
// application frozen (paced at one tick per hour), a tenant's queue
// fills to its cap and every further submit is shed with ErrOverloaded
// — bounded memory, no buffering — while an unaffected tenant on the
// same server is untouched, and the shed tenant's eventual results
// remain exactly the admitted prefix.
func TestServerOverload(t *testing.T) {
	const qcap = 4
	s := startServer(t, Config{RoundInterval: time.Hour})
	c := dialTest(t, s)

	instA := testInstance(t, 16, 0)
	instB := testInstance(t, 16, 1)
	tcA := tcFor(instA)
	tcA.QueueCap = qcap
	tcB := tcFor(instB)
	if _, _, err := c.Open("hot", tcA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open("calm", tcB); err != nil {
		t.Fatal(err)
	}

	// Fill the hot tenant's queue; nothing applies, so cap submits are
	// admitted and each one past it is shed.
	for seq := 0; seq < qcap; seq++ {
		_, depth, err := c.Submit("hot", seq, instA.Requests[seq])
		if err != nil {
			t.Fatalf("submit %d: %v", seq, err)
		}
		if depth != seq+1 {
			t.Fatalf("depth after submit %d = %d, want %d", seq, depth, seq+1)
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, err := c.Submit("hot", qcap, instA.Requests[qcap]); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit past cap = %v, want ErrOverloaded", err)
		}
	}
	rows, err := c.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].QueueDepth != qcap || rows[0].Overloads != 10 {
		t.Fatalf("stats = depth %d overloads %d, want %d and 10", rows[0].QueueDepth, rows[0].Overloads, qcap)
	}
	// The backing queue never grows past the compaction bound even
	// across repeated fill/drain cycles.
	if got := len(s.tenant("hot").queue); got > 2*qcap {
		t.Fatalf("queue backing length %d exceeds 2×cap", got)
	}

	// The calm tenant admits below its (default) cap without shedding.
	feed(t, c, "calm", instB, 0)

	// Draining applies exactly what was admitted: the hot tenant's
	// result is the qcap-round prefix, the calm tenant's the full trace.
	prefix := *instA
	prefix.Requests = instA.Requests[:qcap]
	wantHot, err := LocalReference(&prefix, tcA.Policy, tcA.N, tcA.Speed)
	if err != nil {
		t.Fatal(err)
	}
	gotHot, err := c.DrainTenant("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(wantHot, gotHot) {
		t.Fatalf("shed tenant result:\n server %+v\n local  %+v", gotHot, wantHot)
	}
	wantCalm, err := LocalReference(instB, tcB.Policy, tcB.N, tcB.Speed)
	if err != nil {
		t.Fatal(err)
	}
	gotCalm, err := c.DrainTenant("calm")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(wantCalm, gotCalm) {
		t.Fatalf("unaffected tenant result:\n server %+v\n local  %+v", gotCalm, wantCalm)
	}
}

// TestServeLoad runs the load generator against a live server — the
// sustained-rate path of make servesmoke: 64 concurrent tenants each
// replaying an independent trace, verified bit-identical against local
// replays afterwards.
func TestServeLoad(t *testing.T) {
	s := startServer(t, Config{})
	rep, err := RunLoad(LoadConfig{
		Addr:    s.Addr().String(),
		Tenants: 64,
		Params:  workload.Params{Rounds: 50, Seed: 11},
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results: %v", rep.Mismatches)
	}
	if want := int64(64 * 50); rep.RoundsSent != want {
		t.Fatalf("RoundsSent = %d, want %d", rep.RoundsSent, want)
	}
	if rep.AchievedRate <= 0 || rep.Latency.N == 0 {
		t.Fatalf("report missing throughput/latency: %+v", rep)
	}
	if s.NumTenants() != 64 {
		t.Fatalf("NumTenants = %d, want 64", s.NumTenants())
	}
}

// restartLoad drives RunLoad against a server, stops that server
// mid-run the way stop says (graceful Shutdown or crash-like Close),
// boots a replacement on the same address and checkpoint directory, and
// requires every tenant's final result to be bit-identical to a local
// replay — no round lost, none duplicated.
func restartLoad(t *testing.T, cfg Config, stop func(*Server) error, mut ...func(*LoadConfig)) *LoadReport {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- s1.Serve() }()
	addr := s1.Addr().String()

	lcfg := LoadConfig{
		Addr:         addr,
		Tenants:      64,
		Params:       workload.Params{Rounds: 80, Seed: 5},
		Rate:         120, // ~670ms of paced submits per tenant
		Verify:       true,
		RetryTimeout: 20 * time.Second,
	}
	for _, m := range mut {
		m(&lcfg)
	}
	var rep *LoadReport
	var lerr error
	loadDone := make(chan struct{})
	go func() { defer close(loadDone); rep, lerr = RunLoad(lcfg) }()

	time.Sleep(250 * time.Millisecond) // land the stop mid-run
	if err := stop(s1); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}

	cfg.Addr = addr
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Serve() }()
	t.Cleanup(func() {
		s2.Close()
		if err := <-done2; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	if n := s2.NumTenants(); n != lcfg.Tenants {
		t.Fatalf("recovered %d tenants, want %d", n, lcfg.Tenants)
	}

	<-loadDone
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results after restart: %v", rep.Mismatches)
	}
	return rep
}

// TestServeGracefulRestart: SIGTERM-style drain mid-load. Shutdown
// flushes every queued tick and writes final checkpoints, so the
// restarted server resumes each tenant exactly where it stopped and no
// round is replayed or lost.
func TestServeGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 1 << 30, // only the final flush checkpoints
	}, (*Server).Shutdown)
	// A graceful drain loses nothing, so no admitted round is ever
	// submitted twice: at most Tenants×Rounds successful submits. (A
	// tenant whose in-flight submit was admitted just as the server
	// stopped can lose that one acknowledgement — at most once each.)
	want := int64(64 * 80)
	if rep.RoundsSent > want || rep.RoundsSent < want-64 {
		t.Fatalf("RoundsSent = %d, want %d (graceful drain must not lose or replay rounds)", rep.RoundsSent, want)
	}
}

// TestServeCrashRestart: fault injection between round ticks. Close
// drops queues and everything past each tenant's last periodic
// checkpoint; drivers rewind to the server's resume point and re-feed,
// and the final results are still bit-identical.
func TestServeCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 8,
	}, (*Server).Close)
	// The crash loses rounds past the checkpoints, so drivers re-feed:
	// at least the full trace volume, minus at most one lost
	// acknowledgement per tenant for the submit in flight at the crash.
	if want := int64(64*80) - 64; rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestServeGracefulRestartPipelined is the graceful restart harness
// through the pipelined driver: a window of in-flight frames can lose
// its acknowledgements when the drain closes the connection, so the
// accounting bound widens by window×batch per tenant — but results must
// still verify bit-identical, which is the exactly-once claim.
func TestServeGracefulRestartPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	const window, batch = 8, 4
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 1 << 30,
	}, (*Server).Shutdown, func(lc *LoadConfig) {
		lc.Pipeline = window
		lc.Batch = batch
	})
	want := int64(64 * 80)
	if slack := int64(64 * window * batch); rep.RoundsSent > want || rep.RoundsSent < want-slack {
		t.Fatalf("RoundsSent = %d, want within [%d, %d]", rep.RoundsSent, want-slack, want)
	}
}

// TestServeCrashRestartPipelined: fault injection under the pipelined
// driver. The crash can drop both checkpoint-uncovered rounds (re-fed,
// so counted twice) and a window of unacknowledged admissions per
// tenant (never counted), so only the widened lower bound holds — and
// the bit-identical verification inside restartLoad.
func TestServeCrashRestartPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	const window, batch = 8, 4
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 8,
	}, (*Server).Close, func(lc *LoadConfig) {
		lc.Pipeline = window
		lc.Batch = batch
	})
	if want := int64(64*80) - int64(64*window*batch); rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestCloseTenantSubmitRace pins the exactly-once contract of
// CloseTenant against concurrent submits: every round tick acknowledged
// with success is included in the final drained stream. The old
// two-acquisition close (drain, unlock, re-lock, mark closed) had a
// window where a submit could be admitted — and acknowledged — after
// the drain computed the final Result, then be dropped with the tenant.
// Each acknowledged tick here carries one job and the stream is fully
// drained at close, so conservation is exact: Executed+Dropped must
// equal the acknowledged count.
func TestCloseTenantSubmitRace(t *testing.T) {
	s := startServer(t, Config{DefaultQueueCap: 1024})
	closer := dialTest(t, s)
	submitter := dialTest(t, s)
	tc := TenantConfig{Policy: "edf", N: 2, Delta: 2, Delays: []int{64, 64}}
	tick := sched.Request{{Color: 0, Count: 1}}

	for iter := 0; iter < 40; iter++ {
		id := fmt.Sprintf("race-%02d", iter)
		if _, _, err := closer.Open(id, tc); err != nil {
			t.Fatal(err)
		}
		acked := make(chan int, 1)
		go func() {
			n := 0
			for seq := 0; ; {
				_, _, err := submitter.Submit(id, seq, tick)
				switch {
				case err == nil:
					n++
					seq++
				case errors.Is(err, ErrOverloaded):
					time.Sleep(50 * time.Microsecond)
				case errors.Is(err, ErrUnknownTenant):
					acked <- n
					return
				default:
					t.Errorf("submit %s seq %d: %v", id, seq, err)
					acked <- n
					return
				}
			}
		}()
		// Let the submitter build momentum, then close mid-stream.
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		res, err := closer.CloseTenant(id)
		if err != nil {
			t.Fatal(err)
		}
		n := <-acked
		if got := res.Executed + res.Dropped; got != n {
			t.Fatalf("iteration %d: %d jobs acknowledged but final result accounts for %d (executed %d, dropped %d)",
				iter, n, got, res.Executed, res.Dropped)
		}
	}
}

// TestCloseTenantCheckpointRace pins the durable-state contract of
// CloseTenant against the shard worker's checkpoint appends: once
// CloseTenant returns, the tenant's records in the shared log are
// shadowed by a synced tombstone, so even a crash right afterwards
// recovers nothing. CheckpointEvery 1 keeps the worker appending while
// each close lands; appending the tombstone under the tenant lock, after
// which a closed tenant takes no checkpoint, is what stops a straggling
// append from resurrecting the tenant.
func TestCloseTenantCheckpointRace(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1})
	c := dialTest(t, s)
	tc := TenantConfig{Policy: "edf", N: 2, Delta: 2, Delays: []int{8, 8}}
	tick := sched.Request{{Color: 0, Count: 1}}

	for iter := 0; iter < 40; iter++ {
		id := fmt.Sprintf("ck-%02d", iter)
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
	// Give any straggling checkpoint append time to lose the race, then
	// crash: only what was synced survives, and it must recover nothing.
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ids := logTenants(t, dir); len(ids) != 0 {
		t.Fatalf("closed tenants %v still live in the reopened log", ids)
	}
	s2 := startServer(t, Config{CheckpointDir: dir})
	if n := s2.NumTenants(); n != 0 {
		t.Fatalf("restart over closed tenants recovered %d tenants, want 0", n)
	}
}

// TestShutdownAcceptStorm pins the accept/stop race: connections
// accepted while Shutdown runs are either swept (and their handlers
// awaited) or refused — never registered after the close sweep so their
// handler outlives Shutdown. Failure modes of the old ordering include
// a leaked registered connection and connWG.Add racing connWG.Wait.
func TestShutdownAcceptStorm(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := Dial(addr)
				if err != nil {
					return // listener closed; storm over
				}
				c.Stats("") // errors once draining; keep dialing regardless
				c.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the storm land on the accept loop
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// connWG.Wait has returned, so every handler deregistered itself.
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d connections still registered after Shutdown", n)
	}
}

// TestConnAnswersPipelineInOrder: K requests and then a frame of an
// unknown type, written to a raw connection in one flush, come back as
// K+1 responses in request order, each echoing its tag, the last a bad
// request; then the server closes the connection.
func TestConnAnswersPipelineInOrder(t *testing.T) {
	inst := testInstance(t, 32, 0)
	s := startServer(t, Config{})
	if _, _, err := dialTest(t, s).Open("a", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const k, tag0 = 64, 1000
	bw := bufio.NewWriter(conn)
	enc := snap.NewEncoder()
	var want []uint64 // the response type of each request, in order
	for i := 0; i < k; i++ {
		enc.Reset()
		enc.Uint64(uint64(tag0 + i))
		if i%2 == 0 {
			(&batchMsg{Tenant: "a", Seq: i / 2, Ticks: inst.Requests[i/2 : i/2+1]}).encode(enc)
			want = append(want, msgSubmitBatch)
		} else {
			(&tenantMsg{Type: msgTenantStats, Tenant: "a"}).encode(enc)
			want = append(want, msgTenantStats)
		}
		if err := writeFrame(bw, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	enc.Reset()
	enc.Uint64(tag0 + k)
	enc.Uint64(99) // no such message type
	if err := writeFrame(bw, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	want = append(want, msgErr)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var buf []byte
	for i, typ := range want {
		if buf, err = readFrame(br, buf); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		d := snap.NewDecoder(buf)
		if tag, got := d.Uint64(), d.Uint64(); tag != uint64(tag0+i) || got != typ {
			t.Fatalf("response %d: tag %d, type %d; want tag %d, type %d", i, tag, got, tag0+i, typ)
		}
		switch typ {
		case msgSubmitBatch:
			var r batchResp
			if r.decode(d); r.Admitted != 1 || r.Err != nil {
				t.Fatalf("response %d: submit admitted %d, err %+v", i, r.Admitted, r.Err)
			}
		case msgErr:
			var e errResp
			if e.decode(d); e.Code != codeBadRequest {
				t.Fatalf("response %d: code %d (%s), want a bad request", i, e.Code, e.Msg)
			}
		}
	}
	if _, err := readFrame(br, buf); err != io.EOF {
		t.Fatalf("after the bad request: %v, want EOF", err)
	}
}

// TestShutdownUnblocksStalledPeer: a peer pipelines all-tenant stats
// requests against 64 tenants and never reads. The responses back up
// through both socket buffers until the server can write no more and,
// in turn, stops reading. Shutdown still returns within a few seconds,
// with every connection deregistered.
func TestShutdownUnblocksStalledPeer(t *testing.T) {
	s := startServer(t, Config{})
	c := dialTest(t, s)
	for i := 0; i < 64; i++ {
		if _, _, err := c.Open(fmt.Sprintf("t%02d", i), tcFor(testInstance(t, 8, i))); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Small buffers on the peer's own socket make the backlog reach the
	// server sooner; the server's socket keeps its defaults.
	tc := conn.(*net.TCPConn)
	if err := tc.SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if err := tc.SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}

	var burst bytes.Buffer
	bw := bufio.NewWriter(&burst)
	enc := snap.NewEncoder()
	for i := 0; i < 256; i++ {
		enc.Reset()
		enc.Uint64(uint64(i + 1))
		(&tenantMsg{Type: msgTenantStats}).encode(enc)
		if err := writeFrame(bw, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	// Write until a write stalls: the server has stopped reading, which
	// it does only while it cannot write.
	giveUp := time.Now().Add(20 * time.Second)
	for {
		conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := conn.Write(burst.Bytes()); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(giveUp) {
			t.Fatal("the server kept reading from a peer that never reads")
		}
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown still blocked after 5s behind a peer that never reads")
	}
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d connections still registered after Shutdown", n)
	}
}

// TestServerRecovery pins the durability lifecycle at the single-tenant
// level: a crash before the first periodic checkpoint recovers the
// tenant fresh from the round-0 record its open synced; a crash after
// rounds recovers it at the checkpoint; CloseTenant removes its durable
// state.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 24, 0)
	tc := tcFor(inst)
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}

	// Crash before any periodic checkpoint: only the round-0 record
	// survives.
	s1 := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1 << 30})
	c1 := dialTest(t, s1)
	if _, _, err := c1.Open("solo", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c1, "solo", inst, 0)
	s1.Close()

	// The restart rebuilds the tenant at round 0; the client re-feeds
	// the whole trace and the result matches the reference exactly.
	s2 := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 4})
	c2 := dialTest(t, s2)
	next, resumed, err := c2.Open("solo", tc)
	if err != nil || !resumed || next != 0 {
		t.Fatalf("open after round-0 recovery = (%d, %v, %v), want (0, true, nil)", next, resumed, err)
	}
	feed(t, c2, "solo", inst, 0)
	res, err := c2.DrainTenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("post-recovery result differs:\n server %+v\n local  %+v", res, ref)
	}
	s2.Close()

	// The drain wrote a final checkpoint; a third server resumes the
	// tenant at its drained round with the same totals.
	s3 := startServer(t, Config{CheckpointDir: dir})
	c3 := dialTest(t, s3)
	if _, resumed, err := c3.Open("solo", tc); err != nil || !resumed {
		t.Fatalf("open after checkpoint recovery = (resumed %v, %v)", resumed, err)
	}
	res3, err := c3.DrainTenant("solo")
	if err != nil || !resultsEqual(ref, res3) {
		t.Fatalf("recovered result = (%+v, %v), want the drained result", res3, err)
	}

	// CloseTenant deletes the durable state: a fourth server is empty.
	if _, err := c3.CloseTenant("solo"); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	if ids := logTenants(t, dir); len(ids) != 0 {
		t.Fatalf("closed tenant still live in the reopened log: %v", ids)
	}
	s4 := startServer(t, Config{CheckpointDir: dir})
	if n := s4.NumTenants(); n != 0 {
		t.Fatalf("server after CloseTenant recovered %d tenants, want 0", n)
	}
}

// goldenMetaV3 is a tenant meta file exactly as an older build wrote it
// (meta version 3, in its CRC-checked checkpoint container), for the
// configuration {Policy edf, QueueCap 16, N 4, Speed 1, Delta 4,
// Delays [2 6], Weight 3, no reservation}.
var goldenMetaV3 = []byte{0x52, 0x52, 0x43, 0x50, 0x1, 0x0, 0x0, 0x0, 0x1d, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
	0x6, 0x6, 0x65, 0x64, 0x66, 0x20, 0x8, 0x2, 0x8, 0x4, 0x4, 0xc, 0x6, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
	0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x96, 0x3b, 0xc8, 0x66}

// TestRecordVersions pins the durable record format. A tenant's
// configuration rides in its first log record, so it survives a crash
// before the first periodic checkpoint and re-opens resumed at 0. A
// directory an older build wrote is refused by name, not migrated: a
// leftover meta file fails NewServer naming the file, and a record
// without the version-4 prefix — a bare snapshot, the older layout —
// fails it naming the version it holds.
func TestRecordVersions(t *testing.T) {
	dir := t.TempDir()
	want := TenantConfig{Policy: "edf", QueueCap: 16, N: 4, Speed: 1, Delta: 4, Delays: []int{2, 6}, Weight: 3}
	s1 := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1 << 30})
	c1 := dialTest(t, s1)
	if _, _, err := c1.Open("gold", want); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Submit("gold", 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	s1.Close() // crash: only the round-0 record the open synced survives
	s := startServer(t, Config{CheckpointDir: dir})
	if tn := s.tenant("gold"); tn == nil || !tn.cfg.equal(&want) {
		t.Fatalf("recovered tenant = %+v, want config %+v", tn, want)
	}
	if next, resumed, err := dialTest(t, s).Open("gold", want); err != nil || !resumed || next != 0 {
		t.Fatalf("re-open of the recovered tenant = (%d, %v, %v), want (0, true, nil)", next, resumed, err)
	}

	refused := func(older, name string) {
		t.Helper()
		if s2, err := NewServer(Config{Addr: "127.0.0.1:0", CheckpointDir: older}); err == nil || !strings.Contains(err.Error(), name) {
			if s2 != nil {
				s2.Close()
			}
			t.Fatalf("NewServer over an older directory = %v, want an error naming %q", err, name)
		}
	}
	metaDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(metaDir, "gold.meta"), goldenMetaV3, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(metaDir, "gold.meta")

	blob := snapshotOf(t, specStream(t, want.Policy, sched.StreamConfig{N: want.N, Speed: want.Speed, Delta: want.Delta, Delays: want.Delays}))
	refused(plantRecord(t, "bare", 0, blob), "record version 1")
}

// plantRecord writes rec as tenant id's only record, a full record at
// round, in a fresh checkpoint log and returns its directory.
func plantRecord(t *testing.T, id string, round int, rec []byte) string {
	t.Helper()
	dir := t.TempDir()
	l, err := ckptlog.Open(ckptlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(id, ckptlog.KindFull, round, 0, rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// plantDeltaPair writes tenant id's last two records as an older build
// appended them, in a fresh checkpoint log, and returns its directory:
// the full record full at fullRound, then rec at round as a delta
// against it, made with snap.MakeDelta over the whole record, prefix
// included.
func plantDeltaPair(t *testing.T, id string, fullRound int, full []byte, round int, rec []byte) string {
	t.Helper()
	dir := t.TempDir()
	l, err := ckptlog.Open(ckptlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(id, ckptlog.KindFull, fullRound, 0, full); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(id, ckptlog.KindDelta, round, fullRound, snap.MakeDelta(full, rec)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverOlderDeltaRecords: an older build appended a checkpoint as
// a delta against the tenant's latest full record when the delta was
// small. The server appends full records only, but the log still
// resolves such a pair, so NewServer recovers the tenant at the delta's
// round, the rest of the trace drains to a local replay's Result, and
// after a restart the server's own full record supersedes the pair.
func TestRecoverOlderDeltaRecords(t *testing.T) {
	inst := testInstance(t, 96, 0)
	tc := tcFor(inst)
	tc.QueueCap, tc.Speed, tc.Weight = 64, 1, 1 // normalized, as records carry it
	st := specStream(t, tc.Policy, sched.StreamConfig{N: tc.N, Speed: tc.Speed, Delta: tc.Delta, Delays: tc.Delays})
	e := snap.NewEncoder()
	e.Int(recordVersion)
	tc.encode(e)
	record := func(until int) []byte {
		t.Helper()
		for st.Round() < until {
			if err := st.Advance(inst.Requests[st.Round()]); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := st.AppendSnapshot(append([]byte(nil), e.Bytes()...))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	const fullRound, round = 40, 48
	full := record(fullRound)
	dir := plantDeltaPair(t, "old", fullRound, full, round, record(round))

	s := startServer(t, Config{CheckpointDir: dir})
	c := dialTest(t, s)
	if next, resumed, err := c.Open("old", tc); err != nil || !resumed || next != round {
		t.Fatalf("re-open over a full+delta pair = (%d, %v, %v), want (%d, true, nil)", next, resumed, err, round)
	}
	feed(t, c, "old", inst, round)
	res, err := c.DrainTenant("old")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("result after recovering a delta record differs:\n server %+v\n local  %+v", res, ref)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	c2 := dialTest(t, startServer(t, Config{CheckpointDir: dir}))
	if res2, err := c2.DrainTenant("old"); err != nil || !resultsEqual(res, res2) {
		t.Fatalf("drain after a restart = (%+v, %v), want the drained result %+v", res2, err, res)
	}
}

// snapshotOf returns st's snapshot blob.
func snapshotOf(t *testing.T, st *sched.Stream) []byte {
	t.Helper()
	blob, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRestoreRejections pins every check a snapshot restore runs, which
// only recovery reaches: each bad snapshot, planted as a tenant's latest
// checkpoint-log record behind the record version and the configuration
// it declares, fails NewServer with an error naming the tenant and the
// reason, before the server listens.
func TestRestoreRejections(t *testing.T) {
	tc := TenantConfig{Policy: "dlruedf", N: 8, Speed: 1, Delta: 4, Delays: []int{2, 4, 8}, QueueCap: 64, Weight: 1}
	blob := snapshotOf(t, specStream(t, tc.Policy, sched.StreamConfig{N: tc.N, Speed: tc.Speed, Delta: tc.Delta, Delays: tc.Delays}))
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	mismatched := tc
	mismatched.N++
	wrongPolicy := tc
	wrongPolicy.Policy = "edf"
	badPolicy := tc
	badPolicy.Policy = "no-such-policy"
	lateTC, late := lateDeadlineBlob(t)
	lateTC.QueueCap, lateTC.Weight = 64, 1
	foreignTC := TenantConfig{Policy: "dlruedf", N: 4, Speed: 1, Delta: 2, Delays: []int{2, 4, 8}, QueueCap: 64, Weight: 1}

	cases := []struct {
		name   string
		tenant string
		tc     TenantConfig
		round  int // the round the log records for the blob
		blob   []byte
		want   string // substring of the error
	}{
		{"corrupt blob", "t-corrupt", tc, 0, corrupt, "snapshot blob"},
		{"config mismatch", "t-config", mismatched, 0, blob, "does not match"},
		{"policy mismatch", "t-policy", wrongPolicy, 0, blob, "does not match"},
		{"invalid tenant id", "bad id!", tc, 0, blob, "invalid tenant ID"},
		{"bad policy", "t-unknown", badPolicy, 0, blob, "unknown policy"},
		{"late deadline", "t-late", lateTC, 1, late, "outside"},
		{"foreign color", "t-foreign", foreignTC, 4, foreignColorBlob(t), "color 99"},
		{"far-ahead tracker", "t-far", tc, 1 << 40, farAheadBlob(t), "due at round"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			e := snap.NewEncoder()
			e.Int(recordVersion)
			tt.tc.encode(e)
			dir := plantRecord(t, tt.tenant, tt.round, append(e.Bytes(), tt.blob...))
			s, err := NewServer(Config{Addr: "127.0.0.1:0", CheckpointDir: dir})
			if err == nil {
				s.Close()
				t.Fatalf("NewServer recovered a tenant from a record with a %s", tt.name)
			}
			if !strings.Contains(err.Error(), tt.tenant) || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("NewServer = %q, want an error naming %q and %q", err, tt.tenant, tt.want)
			}
		})
	}
}

// TestServerDrainingRejectsWork: once Shutdown begins, submits and new
// opens are refused with ErrDraining while re-attach still answers.
func TestServerDraining(t *testing.T) {
	inst := testInstance(t, 8, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("a", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "a", inst, 0)
	s.draining.Store(true) // the first thing stop() does
	if _, _, err := c.Submit("a", len(inst.Requests), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if _, _, err := c.Open("b", tc); !errors.Is(err, ErrDraining) {
		t.Fatalf("open while draining = %v, want ErrDraining", err)
	}
	if _, resumed, err := c.Open("a", tc); err != nil || !resumed {
		t.Fatalf("re-attach while draining = (resumed %v, %v), want (true, nil)", resumed, err)
	}
}

// TestSubmitDrainingUnderTenantLock pins where admission reads the
// draining flag: under the tenant lock. A submit that reached its tenant
// before Shutdown set the flag, but takes the tenant lock only after
// Shutdown's flush released it, must be rejected as draining — admitted,
// it would be acknowledged behind the tenant's final checkpoint.
func TestSubmitDrainingUnderTenantLock(t *testing.T) {
	inst := testInstance(t, 4, 0)
	s := startServer(t, Config{})
	if _, _, err := dialTest(t, s).Open("late", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	req := snap.NewEncoder()
	req.Uint64(1)
	(&batchMsg{Tenant: "late", Ticks: inst.Requests[:1]}).encode(req)
	resp := snap.NewEncoder()
	tn := s.tenant("late")
	tn.mu.Lock() // as Shutdown's flush holds it
	done := make(chan bool)
	go func() { done <- s.process(req.Bytes(), &connState{}, resp) }()
	// Wait until the submit is inside submitBatch, blocked on the lock:
	// everything it reads before taking the lock has been read.
	for deadline := time.Now().Add(10 * time.Second); !goroutineIn("(*tenant).submitBatch"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the submit never reached the tenant lock")
		}
	}
	s.draining.Store(true)
	tn.mu.Unlock()
	if <-done {
		t.Fatal("a well-formed submit closed the connection")
	}
	d := snap.NewDecoder(resp.Bytes())
	if tag, typ := d.Uint64(), d.Uint64(); tag != 1 || typ != msgSubmitBatch {
		t.Fatalf("response tag %d type %d, want 1 and %d", tag, typ, uint64(msgSubmitBatch))
	}
	var r batchResp
	r.decode(d)
	if r.Admitted != 0 || r.Err == nil || r.Err.Code != codeDraining {
		t.Fatalf("submit that took the tenant lock after draining began = admitted %d, %+v; want a draining rejection", r.Admitted, r.Err)
	}
}

// goroutineIn reports whether some goroutine's stack includes fn.
func goroutineIn(fn string) bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), fn)
}
