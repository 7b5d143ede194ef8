package serve

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/snap"
)

// TestReleaseRestoreRoundTrip moves a live tenant between two servers
// mid-trace — the migration pair — and requires the final result to be
// bit-identical to an unmigrated local replay. It also pins restore
// durability: crashing the target right after the move recovers the
// tenant at its restored round, not at zero.
func TestReleaseRestoreRoundTrip(t *testing.T) {
	inst := testInstance(t, 64, 0)
	tc := tcFor(inst)
	s1 := startServer(t, Config{})
	c1 := dialTest(t, s1)
	if _, _, err := c1.Open("mig", tc); err != nil {
		t.Fatal(err)
	}
	const half = 32
	for seq := 0; seq < half; seq++ {
		for {
			_, _, err := c1.Submit("mig", seq, inst.Requests[seq])
			if err == nil {
				break
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("submit seq %d: %v", seq, err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	rel, err := c1.Release("mig")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NextSeq != half {
		t.Fatalf("released NextSeq = %d, want %d (queue must be flushed before the snapshot)", rel.NextSeq, half)
	}
	if rel.Config.Policy != tc.Policy || rel.Config.N != tc.N {
		t.Fatalf("released config %+v does not echo the open config %+v", rel.Config, tc)
	}
	// The source keeps a tombstone: submits bounce with the retryable
	// draining error, never a silent fresh stream.
	if _, _, err := c1.Submit("mig", half, inst.Requests[half]); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit against released tenant: err = %v, want ErrDraining", err)
	}

	dir := t.TempDir()
	s2, err := NewServer(Config{Addr: "127.0.0.1:0", CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Serve() }()
	c2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	next, err := c2.Restore("mig", rel.Config, rel.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if next != half {
		t.Fatalf("restored NextSeq = %d, want %d", next, half)
	}
	for seq := half; seq < len(inst.Requests); seq++ {
		for {
			_, _, err := c2.Submit("mig", seq, inst.Requests[seq])
			if err == nil {
				break
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("submit seq %d: %v", seq, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	res, err := c2.DrainTenant("mig")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("migrated result differs from local replay:\n got %+v\nwant %+v", res, ref)
	}
	c2.Close()

	// Crash the target: the restore appended and synced the tenant's
	// first record, so recovery resumes at or past the restored round
	// instead of forking a fresh stream at zero.
	addr := s2.Addr().String()
	s2.Close()
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	s3, err := NewServer(Config{Addr: addr, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rt := s3.tenant("mig")
	if rt == nil {
		t.Fatal("migrated tenant not recovered after target crash")
	}
	if r := rt.st.Round(); r < half {
		t.Fatalf("recovered at round %d, want >= %d (restore blob must be the first checkpoint)", r, half)
	}
}

// TestRestoreRejections pins every restore validation path: nothing may
// create or clobber state.
func TestRestoreRejections(t *testing.T) {
	inst := testInstance(t, 16, 0)
	tc := tcFor(inst)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	if _, _, err := c.Open("src", tc); err != nil {
		t.Fatal(err)
	}
	rel, err := c.Release("src")
	if err != nil {
		t.Fatal(err)
	}
	blob := rel.Blob
	if _, _, err := c.Open("dup", tc); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0xff
	mismatched := tc
	mismatched.N++
	wrongPolicy := tc
	wrongPolicy.Policy = "edf"
	badPolicy := tc
	badPolicy.Policy = "no-such-policy"

	cases := []struct {
		name   string
		tenant string
		tc     TenantConfig
		blob   []byte
		want   string // substring of the error
	}{
		{"corrupt blob", "fresh1", tc, corrupt, "restore blob"},
		{"config mismatch", "fresh2", mismatched, blob, "does not match"},
		{"policy mismatch", "fresh3", wrongPolicy, blob, "does not match"},
		{"tenant already open", "dup", tc, blob, "exists"},
		{"invalid tenant id", "bad id!", tc, blob, "invalid tenant ID"},
		{"bad policy", "fresh4", badPolicy, blob, "policy"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cc := dialTest(t, s)
			_, err := cc.Restore(tt.tenant, tt.tc, tt.blob)
			if err == nil {
				t.Fatalf("restore %s: expected rejection", tt.name)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("restore %s: err %q, want substring %q", tt.name, err, tt.want)
			}
		})
	}
	// Rejections must leave no residue: the fresh IDs stay unknown.
	if _, err := c.Stats("fresh1"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("rejected restore left state behind: %v", err)
	}

	// A blob holding a deadline past the window a live stream can hold
	// is a bad request. Installed, it would panic the shard worker on
	// the tenant's next arrival of that color.
	lateTC, late := lateDeadlineBlob(t)
	_, err = c.Restore("late", lateTC, late)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != codeBadRequest || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("restore of a late-deadline blob: %v, want a bad request naming the window", err)
	}
	if s.tenant("late") != nil {
		t.Fatal("rejected restore installed the tenant")
	}
}

// TestReleasedTombstone pins the tombstone contract: a released tenant
// leaves the server's table, every command against it — submit,
// re-open, stats, drain, close — answers with the retryable draining
// error, the tenant vanishes from aggregate stats and counts, and a
// restore over the tombstone (migrating back) revives it at its release
// point.
func TestReleasedTombstone(t *testing.T) {
	inst := testInstance(t, 16, 0)
	tc := tcFor(inst)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	if _, _, err := c.Open("tomb", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "tomb", inst, 0)
	rel, err := c.Release("tomb")
	if err != nil {
		t.Fatal(err)
	}
	if s.tenant("tomb") != nil {
		t.Fatal("released tenant still in the table")
	}

	if _, _, err := c.Submit("tomb", rel.NextSeq, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit: err = %v, want ErrDraining", err)
	}
	if _, _, err := c.Open("tomb", tc); !errors.Is(err, ErrDraining) {
		t.Fatalf("re-open: err = %v, want ErrDraining", err)
	}
	if _, err := c.Stats("tomb"); !errors.Is(err, ErrDraining) {
		t.Fatalf("stats: err = %v, want ErrDraining", err)
	}
	if _, err := c.DrainTenant("tomb"); !errors.Is(err, ErrDraining) {
		t.Fatalf("drain: err = %v, want ErrDraining", err)
	}
	if _, err := c.CloseTenant("tomb"); !errors.Is(err, ErrDraining) {
		t.Fatalf("close: err = %v, want ErrDraining", err)
	}
	if rows, err := c.Stats(""); err != nil || len(rows) != 0 {
		t.Fatalf("all-tenant stats = %d rows (%v), want 0 (tombstone excluded)", len(rows), err)
	}
	if n := s.NumTenants(); n != 0 {
		t.Fatalf("NumTenants = %d, want 0 (tombstone excluded)", n)
	}

	next, err := c.Restore("tomb", rel.Config, rel.Blob)
	if err != nil {
		t.Fatalf("restore over tombstone: %v", err)
	}
	if next != rel.NextSeq {
		t.Fatalf("restored NextSeq = %d, want %d", next, rel.NextSeq)
	}
	if _, _, err := c.Submit("tomb", next, nil); err != nil {
		t.Fatalf("submit after restore-back: %v", err)
	}
}

// TestMaxTenantsSkipsTombstones: MaxTenants bounds live tenants, so a
// released tombstone holds no slot. A server at its limit takes back a
// tenant whose migration bounced (a restore over its own tombstone) and
// opens a new tenant in a released one's place, while a third live
// tenant, new or restored, is still refused.
func TestMaxTenantsSkipsTombstones(t *testing.T) {
	s := startServer(t, Config{MaxTenants: 2})
	c := dialTest(t, s)
	tc := tcFor(testInstance(t, 8, 0))
	for _, id := range []string{"a", "b"} {
		if _, _, err := c.Open(id, tc); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := c.Release("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore("a", rel.Config, rel.Blob); err != nil {
		t.Fatalf("restore-back at the limit: %v", err)
	}
	if rel, err = c.Release("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open("c", tc); err != nil {
		t.Fatalf("open beside a tombstone at the limit: %v", err)
	}
	if n := s.NumTenants(); n != 2 {
		t.Fatalf("NumTenants = %d, want 2", n)
	}
	if _, _, err := c.Open("d", tc); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("open of a third live tenant = %v, want ErrOverloaded", err)
	}
	if _, err := c.Restore("a", rel.Config, rel.Blob); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("restore of a third live tenant = %v, want ErrOverloaded", err)
	}
}

// TestServiceShareSkipsReleased: a released migration tombstone's
// rounds left with it, so a survivor's ServiceShare must read the same
// from its single-tenant row as from its row among all tenants.
func TestServiceShareSkipsReleased(t *testing.T) {
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
	if _, err := c.Release("a"); err != nil {
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
		t.Fatalf("all-tenant rows after the release = %+v, want only b", all)
	}
	if one[0].ServiceShare != all[0].ServiceShare || one[0].ServiceShare != 1 {
		t.Fatalf("b's ServiceShare = %v alone, %v among all tenants; want 1 in both", one[0].ServiceShare, all[0].ServiceShare)
	}
}

// TestWireRestoreReleaseCodecs round-trips the migration pair: the
// restore request (the open shape plus the blob) and the release
// response, reservation included.
func TestWireRestoreReleaseCodecs(t *testing.T) {
	tc := TenantConfig{Policy: "edf", N: 4, Speed: 2, Delta: 3, QueueCap: 9,
		Delays: []int{2, 6}, Weight: 5, ResRate: 0.5, ResDelay: 24}
	e := snap.NewEncoder()
	rm := openMsg{Version: ProtocolVersion, Tenant: "a", Config: tc, Blob: []byte{1, 2, 3}}
	rm.encode(e, msgRestore)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgRestore {
		t.Fatalf("type = %d, want msgRestore", typ)
	}
	var got openMsg
	got.decode(d, msgRestore)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rm) {
		t.Fatalf("restore request round trip: got %+v, want %+v", got, rm)
	}

	e.Reset()
	rr := ReleasedTenant{Config: tc, NextSeq: 41, Blob: []byte{9, 8}}
	rr.encode(e)
	d = snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgRelease {
		t.Fatalf("type = %d, want msgRelease", typ)
	}
	var rgot ReleasedTenant
	rgot.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rgot, rr) {
		t.Fatalf("release response round trip: got %+v, want %+v", rgot, rr)
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
