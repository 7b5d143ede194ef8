package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/bdr"
	"repro/internal/ckptlog"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/workload"
)

// The functions here time calls into single layers from outside the
// servers, on inputs recorded from the live run: the traced run's
// per-layer numbers for layers no client span can reach.

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink int

// timePick times the wdrr allocator's Pick on load snapshots built from
// polled stats rows, with every tenant backlogged (the worst pass), and
// returns the median ns per Pick over snapshots.
func timePick(snaps [][]serve.TenantStats) (float64, error) {
	a, err := serve.NewAllocator("wdrr", 0, 0)
	if err != nil {
		return 0, err
	}
	const iters = 2000
	var per []float64
	for _, rows := range snaps {
		loads := make([]serve.TenantLoad, len(rows))
		for i, row := range rows {
			loads[i] = serve.TenantLoad{Queued: max(row.QueueDepth, 1), MinDelay: max(row.MinDelay, 1), Weight: max(row.Weight, 1)}
		}
		t0 := time.Now()
		for k := 0; k < iters; k++ {
			sink += a.Pick(loads)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/iters)
	}
	return median(per), nil
}

// timeShares times the BDR controller's Shares on demand snapshots built
// from polled stats rows, for a paced pass with every tenant backlogged,
// and returns the median ns per call.
func timeShares(snaps [][]serve.TenantStats) float64 {
	ctrl := &bdr.Controller{ShardRate: 1}
	const iters = 2000
	var per []float64
	for _, rows := range snaps {
		demands := make([]bdr.Demand, len(rows))
		for i, row := range rows {
			demands[i] = bdr.Demand{
				Res:     bdr.BDR{Rate: row.ReservedRate, Delay: row.ReservedDelay},
				Backlog: max(row.QueueDepth, 1), Weight: max(row.Weight, 1),
			}
		}
		out := make([]bdr.Share, len(demands))
		t0 := time.Now()
		for k := 0; k < iters; k++ {
			ctrl.Shares(demands, len(demands), out)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/iters)
		sink += out[0].Budget
	}
	return median(per)
}

// timeAdmit times Tree.Admit on the reserved fleet's 64 reservations —
// the 63 victims, then the adversary's infeasible 0.9 — against the
// single-shard tree rrserved -bdr -shards 1 builds, and returns the
// median ns per Admit over fresh trees.
func timeAdmit(seed uint64) (float64, error) {
	_, res, err := workload.ReservedFleet(seed, numTenants, 8, fleetRounds, 1.0, 6, resDelay)
	if err != nil {
		return 0, err
	}
	ids := make([]string, len(res))
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
	}
	const reps = 200
	var per []float64
	for rep := 0; rep < reps; rep++ {
		tree, err := bdr.NewTree(bdr.BDR{Rate: 1}, []bdr.BDR{{Rate: 1, Delay: 1}})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 1; i < len(res); i++ {
			if err := tree.Admit(0, ids[i], bdr.BDR{Rate: res[i].Rate, Delay: res[i].Delay}); err != nil {
				return 0, fmt.Errorf("admitting victim %d: %w", i, err)
			}
		}
		aerr := tree.Admit(0, ids[0], bdr.BDR{Rate: res[0].Rate, Delay: res[0].Delay})
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(res)))
		var inf *bdr.InfeasibleError
		if !errors.As(aerr, &inf) {
			return 0, fmt.Errorf("adversary admit = %v, want *bdr.InfeasibleError", aerr)
		}
	}
	return median(per), nil
}

// frames splits captured request bytes into frame bodies, dropping a
// frame the capture cut short.
func frames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 4 {
		n := int(binary.LittleEndian.Uint32(b))
		if len(b) < 4+n {
			break
		}
		out = append(out, b[4:4+n])
		b = b[4+n:]
	}
	return out
}

// timeRoute times what rrproxy does per request before relaying it —
// PeekRequest, then rendezvous hashing over the backends — on the
// request frames the timing conn captured, and returns ns per frame.
func timeRoute(fs [][]byte, backends []string) (float64, error) {
	if len(fs) == 0 {
		return 0, errors.New("no request frames captured")
	}
	const minOps = 200_000
	ops := 0
	t0 := time.Now()
	for ops < minOps {
		for _, f := range fs {
			info, err := serve.PeekRequest(f)
			if err != nil {
				return 0, fmt.Errorf("peeking a captured frame: %w", err)
			}
			sink += proxy.Pick(backends, info.Tenant)
		}
		ops += len(fs)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), nil
}

// Replay sizing for the durability path. replaySyncs group commits give
// the sync p99 at least ten samples beyond it; maxAppendsPerSync bounds
// the replay's length when the live log batched more than that.
const (
	replaySyncs       = 1000
	maxAppendsPerSync = 64
	deltaEveryFull    = 16 // the serve tier's delta-chain limit
	replayOpens       = 5
)

// durabilityReplay rebuilds the durable write path locally: every
// tenant's looped trace stepped round-robin as the shard workers do,
// and at perRound checkpoints per round a Stream snapshot, a delta
// against the tenant's last full record when the chain is short and the
// delta at most half the snapshot (the serve tier's rule), and a
// ckptlog append, with a group commit every perSync appends. It then
// times ckptlog.Open over the directory it wrote.
func durabilityReplay(tenants []*tenant, dir string, perRound, perSync float64) (map[string]float64, error) {
	perSync = min(max(perSync, 1), maxAppendsPerSync)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Only the replay's own Sync calls commit, so the cadence is exact.
	opt := ckptlog.Options{Dir: dir, CommitInterval: time.Hour}
	l, err := ckptlog.Open(opt)
	if err != nil {
		return nil, err
	}
	type tstate struct {
		st          *sched.Stream
		credit      float64
		snapBuf     []byte
		deltaBuf    []byte
		base        []byte
		baseRound   int
		deltasSince int
		dm          snap.DeltaMaker
	}
	ts := make([]*tstate, len(tenants))
	for i, t := range tenants {
		pol, err := serve.NewPolicy(policySpec)
		if err != nil {
			return nil, err
		}
		st, err := sched.NewStream(pol, sched.StreamConfig{N: resources, Delta: t.tc.Delta, Delays: t.tc.Delays})
		if err != nil {
			return nil, err
		}
		ts[i] = &tstate{st: st}
	}
	var snapNS, appendNS, syncNS []float64
	var blobBytes, appends, deltas int64
	sinceSync := 0
	for k := 0; len(syncNS) < replaySyncs; k++ {
		for i, t := range tenants {
			s := ts[i]
			if _, err := s.st.Step(t.tick(k)); err != nil {
				return nil, err
			}
			if s.credit += perRound; s.credit < 1 {
				continue
			}
			s.credit--
			round := s.st.Round()
			t0 := time.Now()
			cur, err := s.st.AppendSnapshot(s.snapBuf[:0])
			if err != nil {
				return nil, err
			}
			snapNS = append(snapNS, float64(time.Since(t0).Nanoseconds()))
			s.snapBuf = cur
			blobBytes += int64(len(cur))
			kind, baseRound, rec := ckptlog.KindFull, 0, cur
			if s.base != nil && s.deltasSince < deltaEveryFull {
				s.deltaBuf = s.dm.AppendDelta(s.deltaBuf[:0], s.base, cur)
				if 2*len(s.deltaBuf) <= len(cur) {
					kind, baseRound, rec = ckptlog.KindDelta, s.baseRound, s.deltaBuf
				}
			}
			t1 := time.Now()
			if err := l.Append(t.id, kind, round, baseRound, rec); err != nil {
				return nil, err
			}
			appendNS = append(appendNS, float64(time.Since(t1).Nanoseconds()))
			appends++
			if kind == ckptlog.KindFull {
				s.base, s.baseRound, s.deltasSince = append(s.base[:0], cur...), round, 0
			} else {
				s.deltasSince++
				deltas++
			}
			if sinceSync++; float64(sinceSync) >= perSync {
				t2 := time.Now()
				if err := l.Sync(); err != nil {
					return nil, err
				}
				syncNS = append(syncNS, float64(time.Since(t2).Nanoseconds()))
				sinceSync = 0
			}
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	var openMS []float64
	for i := 0; i < replayOpens; i++ {
		t0 := time.Now()
		l, err := ckptlog.Open(opt)
		if err != nil {
			return nil, err
		}
		openMS = append(openMS, float64(time.Since(t0).Nanoseconds())/1e6)
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	slices.Sort(snapNS)
	slices.Sort(appendNS)
	slices.Sort(syncNS)
	syncP99, _ := tail(syncNS, 0.99)
	return map[string]float64{
		"snap.snapshot_us":    quantile(snapNS, 0.5) / 1e3,
		"snap.blob_bytes":     float64(blobBytes) / float64(appends),
		"snap.delta_frac":     float64(deltas) / float64(appends),
		"ckptlog.append_us":   quantile(appendNS, 0.5) / 1e3,
		"ckptlog.sync_ms.p50": quantile(syncNS, 0.5) / 1e6,
		"ckptlog.sync_ms.p99": syncP99 / 1e6,
		"ckptlog.open_ms":     median(openMS),
	}, nil
}
