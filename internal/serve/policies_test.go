package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/workload"
)

// snapshotHashes pins, per servable policy spec, one SHA-256 over every
// 16th-round snapshot and the drained Result of eight router tenants
// (seed 7, 512 rounds) at N=8. The snapshots are the bytes a checkpoint
// log holds; the Results are what rrload -verify compares. A changed
// policy decision, heap layout, tie-break or snapshot encoding moves the
// hash, so an optimisation that claims to change none of them is checked
// against builds that predate it.
var snapshotHashes = map[string]string{
	"adaptive":   "9226ca59dd2ea3f4a8f22972cead9e8749c16baa48c720afac621c25822f1a2d",
	"dlru":       "26aef6fac37bdb0310ce140d9fccf30587f2afe6d1f0a5acffb13c064e529c4c",
	"dlruedf":    "820eb99085ae817e3d18e83147e4e49197fd7f90978538c4d4fdd83f87783d12",
	"edf":        "84cc7b8d99c0829f9ef2ab271bf3bd975dcb2baf4a9e1a2e00c8be24e826a202",
	"greedy":     "d48bb07162ae08f8a638da06da70f095d0d1424e692c5e6287c7bf28793f08e1",
	"hysteresis": "70dc43cef624f5b5b7d74447d11d500fad6c232a8a280839483b50b946e194c5",
	"never":      "4c1351b8b8384399264562e0fc7cf6a10f9ac0764266114b1651d0b05842ce14",
	"seqedf":     "aab6b073604a5adf96d3341a4e2d1e34d615daa87857de3435988758e66238f5",
}

func TestSnapshotBytesStable(t *testing.T) {
	for _, spec := range PolicySpecs() {
		t.Run(spec, func(t *testing.T) {
			h := sha256.New()
			for i := 0; i < 8; i++ {
				inst := routerTenant(t, i, 512)
				st := specStream(t, spec, routerConfig(inst))
				for r, req := range inst.Requests {
					if _, err := st.Step(req); err != nil {
						t.Fatalf("tenant %d round %d: %v", i, r, err)
					}
					if (r+1)%16 == 0 {
						h.Write(requireRoundTrip(t, spec, st))
					}
				}
				if _, err := st.Drain(); err != nil {
					t.Fatalf("tenant %d drain: %v", i, err)
				}
				h.Write(resultBytes(st.Result()))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != snapshotHashes[spec] {
				t.Errorf("snapshot and Result hash %s, pinned %q", got, snapshotHashes[spec])
			}
		})
	}
}

// TestAdvanceMatchesStep pins the report-free step to Step: per
// servable policy, each of eight router tenants is driven through two
// streams, one by Step and one by Advance, and the two must snapshot to
// the same bytes every 16th round and drain to the same Result. Each
// round's batches arrive in reverse color order, so both steps must
// normalize them alike.
func TestAdvanceMatchesStep(t *testing.T) {
	for _, spec := range PolicySpecs() {
		t.Run(spec, func(t *testing.T) {
			for i := 0; i < 8; i++ {
				inst := routerTenant(t, i, 512)
				stepped := specStream(t, spec, routerConfig(inst))
				advanced := specStream(t, spec, routerConfig(inst))
				same := func(when string) {
					a, err := stepped.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					b, err := advanced.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a, b) {
						t.Fatalf("tenant %d %s: Step and Advance snapshots differ", i, when)
					}
				}
				for r, req := range inst.Requests {
					req = slices.Clone(req)
					slices.Reverse(req)
					if _, err := stepped.Step(req); err != nil {
						t.Fatalf("tenant %d round %d: Step: %v", i, r, err)
					}
					if err := advanced.Advance(req); err != nil {
						t.Fatalf("tenant %d round %d: Advance: %v", i, r, err)
					}
					if (r+1)%16 == 0 {
						same(fmt.Sprintf("round %d", r))
					}
				}
				for stepped.TotalPending() > 0 {
					if _, err := stepped.Step(nil); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := advanced.Drain(); err != nil {
					t.Fatal(err)
				}
				same("drained")
				if a, b := stepped.Result(), advanced.Result(); !bytes.Equal(resultBytes(a), resultBytes(b)) {
					t.Fatalf("tenant %d: Step Result %+v, Advance Result %+v", i, a, b)
				}
			}
		})
	}
}

// FuzzRestoreStep pins the restore path against what a restored stream
// does next: for any (spec, blob) pair, RestoreStream never panics, and
// a stream it accepts takes 32 rounds of valid arrivals and a drain
// without an error or a panic, and re-snapshots to bytes that restore
// to the same bytes. A blob that passes every restore check but leaves
// a state the round engine cannot step is a shard worker crash or a
// poisoned tenant in rrserved.
func FuzzRestoreStep(f *testing.F) {
	inst := routerTenant(f, 0, 40)
	for _, spec := range PolicySpecs() {
		st := specStream(f, spec, routerConfig(inst))
		for _, req := range inst.Requests {
			if _, err := st.Step(req); err != nil {
				f.Fatal(err)
			}
		}
		blob, err := st.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(spec, blob)
	}
	_, late := lateDeadlineBlob(f)
	f.Add("hysteresis", late)
	f.Add("dlruedf", foreignColorBlob(f))
	f.Add("dlruedf", farAheadBlob(f))

	f.Fuzz(func(t *testing.T, spec string, blob []byte) {
		pol, err := NewPolicy(spec)
		if err != nil {
			return
		}
		st, err := sched.RestoreStream(pol, blob, nil)
		if err != nil {
			return
		}
		requireRoundTrip(t, spec, st)
		cfg, _, err := sched.PeekSnapshot(blob)
		if err != nil {
			t.Fatalf("RestoreStream accepted a blob PeekSnapshot rejects: %v", err)
		}
		n := len(cfg.Delays)
		for r := 0; r < 32; r++ {
			var req sched.Request
			if n > 0 {
				req = sched.Request{
					{Color: sched.Color(r % n), Count: 1 + r%3},
					{Color: sched.Color((7*r + 3) % n), Count: 2},
				}
			}
			if _, err := st.Step(req); err != nil {
				t.Fatalf("step %d after restore: %v", r, err)
			}
		}
		requireRoundTrip(t, spec, st)
		// Draining takes up to the largest delay bound in rounds; past a
		// few thousand, charge the rest instead so one input stays fast.
		if n > 0 && slices.Max(cfg.Delays) > 4096 {
			st.DropPending()
		} else if _, err := st.Drain(); err != nil {
			t.Fatalf("drain after restore: %v", err)
		}
	})
}

// FuzzOpenStep pins the open path against what a new stream does
// next: for any (spec, N, Speed, Delta, Delays), NewStream either
// refuses the configuration or returns a stream that takes 32 rounds of
// valid arrivals and a drain without an error or a panic. A
// configuration NewStream accepts but the policy or the round engine
// cannot run is a crashed rrserved at open or at a later round. N and
// Speed are folded into small ranges so one input stays fast (the
// sched package's TestConfigCaps pins the caps themselves); delays are
// read as little-endian 64-bit words, at most 64 of them.
func FuzzOpenStep(f *testing.F) {
	add := func(spec string, n, speed, delta int, delays ...int) {
		var raw []byte
		for _, d := range delays {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(d))
		}
		f.Add(spec, n, speed, delta, raw)
	}
	for _, spec := range PolicySpecs() {
		add(spec, 8, 1, 4, 2, 4, 8)
	}
	add("dlruedf", 6, 1, 4, 2, 4, 8) // ΔLRU-EDF needs N divisible by 4
	add("dlru", 5, 1, 4, 2, 4, 8)    // a replicated cache needs an even N
	add("edf", 4, 1, 4, math.MaxInt) // r + D_c overflows at the second round

	f.Fuzz(func(t *testing.T, spec string, n, speed, delta int, raw []byte) {
		pol, err := NewPolicy(spec)
		if err != nil {
			return
		}
		var delays []int
		for ; len(raw) >= 8 && len(delays) < 64; raw = raw[8:] {
			delays = append(delays, int(int64(binary.LittleEndian.Uint64(raw))))
		}
		st, err := sched.NewStream(pol, sched.StreamConfig{N: n % 17, Speed: speed % 5, Delta: delta, Delays: delays})
		if err != nil {
			return
		}
		k := len(delays)
		for r := 0; r < 32; r++ {
			var req sched.Request
			if k > 0 {
				req = sched.Request{
					{Color: sched.Color(r % k), Count: 1 + r%3},
					{Color: sched.Color((7*r + 3) % k), Count: 2},
				}
			}
			if _, err := st.Step(req); err != nil {
				t.Fatalf("step %d: %v", r, err)
			}
		}
		// Draining takes up to the largest delay bound in rounds; past a
		// few thousand, charge the rest instead so one input stays fast.
		if k > 0 && slices.Max(delays) > 4096 {
			st.DropPending()
		} else if _, err := st.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

// lateDeadlineBlob returns the configuration and a Hysteresis snapshot,
// at round 1, whose one queued job of color 0 is due at round 3072,
// past the window [1, 24] a live stream at round 1 holds for that
// color's delay bound of 24. The next arrival of color 0 is due at round
// 25, ahead of the queued deadline, which the per-color bucket queue
// cannot hold. The snapshot is taken with a delay bound of 3072 for
// color 0, and its header rewritten.
func lateDeadlineBlob(tb testing.TB) (TenantConfig, []byte) {
	tb.Helper()
	tc := TenantConfig{Policy: "hysteresis", N: 8, Speed: 24, Delta: 24,
		Delays: []int{24, 24, 24, 24, 3072, 3072, 24, 24}}
	st := specStream(tb, tc.Policy, sched.StreamConfig{N: tc.N, Speed: tc.Speed, Delta: tc.Delta,
		Delays: []int{3072, 24, 24, 24, 3072, 3072, 24, 24}})
	if _, err := st.Step(sched.Request{{Color: 0, Count: 1}}); err != nil {
		tb.Fatal(err)
	}
	blob, err := st.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return tc, withDelays(tb, blob, tc.Delays)
}

// foreignColorBlob returns a ΔLRU-EDF snapshot over 3 colors whose cache
// holds color 99, which the engine rejects as an unknown color on the
// first Step after a restore. It is a real snapshot with one cache slot
// rewritten.
func foreignColorBlob(tb testing.TB) []byte {
	tb.Helper()
	const n = 4
	st := specStream(tb, "dlruedf", sched.StreamConfig{N: n, Delta: 2, Delays: []int{2, 4, 8}})
	var res sched.StepResult
	var err error
	for r := 0; r < 4; r++ {
		if res, err = st.Step(sched.Request{{Color: 1, Count: 3}}); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := st.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	// The cache section: version 1, n, replication, n/2 slots, and the
	// slot colors, which a replicated cache lays out as the first half of
	// the assignment.
	slots := res.Assignment[:n/2]
	if slots[0] != 1 {
		tb.Fatalf("cache slots %v, want color 1 in slot 0", slots)
	}
	section := func(slot0 sched.Color) []byte {
		e := snap.NewEncoder()
		e.Int(1)
		e.Int(n)
		e.Bool(true)
		e.Int(n / 2)
		e.Int(int(slot0))
		e.Int(int(slots[1]))
		return e.Bytes()
	}
	old := section(slots[0])
	if bytes.Count(blob, old) != 1 {
		tb.Fatalf("cache section %x found %d times in the snapshot", old, bytes.Count(blob, old))
	}
	return bytes.Replace(blob, old, section(99), 1)
}

// farAheadBlob returns a ΔLRU-EDF snapshot over the delay bounds
// 2, 4 and 8, drained at round 40, whose round and rounds fields are
// rewritten to 2⁴⁰. Its engine state is consistent (the pool is empty),
// but its tracker's due multiples lie in [40, 47], far behind the
// restored round: a first Step would walk every multiple of each delay
// bound up to round 2⁴⁰ with the tenant lock held.
func farAheadBlob(tb testing.TB) []byte {
	tb.Helper()
	st := specStream(tb, "dlruedf", sched.StreamConfig{N: 8, Speed: 1, Delta: 4, Delays: []int{2, 4, 8}})
	for r := 0; r < 40; r++ {
		var req sched.Request
		if r < 24 {
			req = sched.Request{{Color: sched.Color(r % 3), Count: 1 + r%4}, {Color: 2, Count: 1}}
		}
		if err := st.Advance(req); err != nil {
			tb.Fatal(err)
		}
	}
	if st.Round() != 40 || st.TotalPending() != 0 {
		tb.Fatalf("stream at round %d with %d jobs pending, want drained at round 40", st.Round(), st.TotalPending())
	}
	blob, err := st.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return withRound(tb, blob, 1<<40)
}

// withRound returns blob, a stream snapshot, with its engine's round
// and rounds fields both set to r.
func withRound(tb testing.TB, blob []byte, r int) []byte {
	tb.Helper()
	d := snap.NewDecoder(blob)
	d.Int()        // snapshot version
	d.Int()        // N
	d.Int()        // Speed
	d.Int()        // Delta
	d.Ints()       // delay bounds
	_ = d.String() // policy name
	head := len(blob) - d.Remaining()
	d.Int() // round
	reconfig, drop := d.Int64(), d.Int64()
	executed, dropped, reconfigs := d.Int(), d.Int(), d.Int()
	d.Int() // rounds
	if d.Err() != nil {
		tb.Fatal(d.Err())
	}
	e := snap.NewEncoder()
	e.Int(r)
	e.Int64(reconfig)
	e.Int64(drop)
	e.Int(executed)
	e.Int(dropped)
	e.Int(reconfigs)
	e.Int(r)
	out := append([]byte(nil), blob[:head]...)
	out = append(out, e.Bytes()...)
	return append(out, blob[len(blob)-d.Remaining():]...)
}

// withDelays returns blob, a stream snapshot, with the delay bounds in
// its header replaced by delays.
func withDelays(tb testing.TB, blob []byte, delays []int) []byte {
	tb.Helper()
	cfg, name, err := sched.PeekSnapshot(blob)
	if err != nil {
		tb.Fatal(err)
	}
	header := func(delays []int) []byte {
		e := snap.NewEncoder()
		e.Int(sched.SnapshotVersion)
		e.Int(cfg.N)
		e.Int(cfg.Speed)
		e.Int(cfg.Delta)
		e.Ints(delays)
		e.String(name)
		return e.Bytes()
	}
	old := header(cfg.Delays)
	if !bytes.HasPrefix(blob, old) {
		tb.Fatalf("snapshot does not start with the header %x", old)
	}
	return append(header(delays), blob[len(old):]...)
}

// routerTenant is tenant i of the router workload at seed 7.
func routerTenant(tb testing.TB, i, rounds int) *sched.Instance {
	tb.Helper()
	inst, err := workload.Tenant("router", workload.Params{Seed: 7, Rounds: rounds}, i)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// routerConfig is the stream configuration at N=8 over inst's colors.
func routerConfig(inst *sched.Instance) sched.StreamConfig {
	return sched.StreamConfig{N: 8, Delta: inst.Delta, Delays: inst.Delays}
}

// specStream opens a stream with cfg for the policy spec.
func specStream(tb testing.TB, spec string, cfg sched.StreamConfig) *sched.Stream {
	tb.Helper()
	pol, err := NewPolicy(spec)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := sched.NewStream(pol, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// requireRoundTrip snapshots st, restores the snapshot into a fresh
// policy of spec, and requires the restored stream to snapshot to the
// same bytes, which it returns.
func requireRoundTrip(tb testing.TB, spec string, st *sched.Stream) []byte {
	tb.Helper()
	blob, err := st.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := NewPolicy(spec)
	if err != nil {
		tb.Fatal(err)
	}
	back, err := sched.RestoreStream(pol, blob, nil)
	if err != nil {
		tb.Fatalf("restoring a fresh snapshot: %v", err)
	}
	again, err := back.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		tb.Fatalf("snapshot of a restored stream differs from the snapshot it was restored from")
	}
	return blob
}

// resultBytes encodes every field of res but the policy name and the
// (unrecorded) schedule.
func resultBytes(res *sched.Result) []byte {
	e := snap.NewEncoder()
	e.Int64(res.Cost.Reconfig)
	e.Int64(res.Cost.Drop)
	e.Int(res.Executed)
	e.Int(res.Dropped)
	e.Int(res.Reconfigs)
	e.Int(res.Rounds)
	e.Ints(res.DropsByColor)
	e.Ints(res.ExecByColor)
	return e.Bytes()
}
