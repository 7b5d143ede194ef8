package bench

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/offline"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// DefaultSuite is the fixed benchmark set behind `rrbench -json`: the
// hot paths whose numbers docs/PERFORMANCE.md tracks. Every spec is
// deterministic (fixed seeds), so two runs on the same machine differ
// only by timing noise — which is exactly what -compare's threshold
// absorbs.
func DefaultSuite() []Spec {
	return []Spec{
		fullRunSpec("run/dlruedf/router4096", func() sched.Policy { return core.NewDLRUEDF() }),
		fullRunSpec("run/dlru/router4096", func() sched.Policy { return policy.NewDLRU() }),
		fullRunSpec("run/edf/router4096", func() sched.Policy { return policy.NewEDF() }),
		stepSpec("step/dlruedf", func() sched.Policy { return core.NewDLRUEDF() }),
		stepSpec("step/dlru", func() sched.Policy { return policy.NewDLRU() }),
		stepSpec("step/edf", func() sched.Policy { return policy.NewEDF() }),
		sweepSpec("sweep/dlruedf/16x256/serial", 1),
		sweepSpec("sweep/dlruedf/16x256/parallel", 0),
		exactSpec("exact/bb/small", smallExactInstance, false),
		exactSpec("exact/ref/small", smallExactInstance, true),
		bracketSpec("exact/bracket/small", smallExactInstance),
		serveSubmitSpec("serve/submit/1tenant", 1, serveServer),
		serveSubmitSpec("serve/submit/64tenants", 64, serveServer),
		servePipelinedSpec("serve/submit/pipelined/1tenant", 1, 64, 32, serveServer),
		servePipelinedSpec("serve/submit/pipelined/64tenants", 64, 64, 32, serveServer),
		serveSubmitSpec("serve/proxy/submit/1tenant", 1, proxyServer),
		serveSubmitSpec("serve/proxy/submit/64tenants", 64, proxyServer),
		servePipelinedSpec("serve/proxy/submit/pipelined/1tenant", 1, 64, 32, proxyServer),
		serveStatsSpec("serve/stats-ex/64tenants", 64),
		serveSkewedSpec("serve/skewed/wdrr/64tenants", "wdrr"),
		serveSkewedSpec("serve/skewed/fifo/64tenants", "fifo"),
		serveBDRSkewedSpec("serve/bdr/skewed/64tenants"),
		serveCkptSpec("serve/ckpt/log/64tenants", false),
		serveCkptSpec("serve/ckpt/log/adaptive/64tenants", true),
	}
}

// ExactOPTSuite is the heavyweight exact-solver set behind `rrbench -json
// -exact`: the branch-and-bound solver and the legacy reference DFS on
// the pinned medium instance (≈380k expanded states; the reference needs
// tens of seconds per op). BENCH_pr4.json records both, and the ratio of
// their states_per_sec entries is the solver speedup docs/PERFORMANCE.md
// quotes. Kept out of DefaultSuite so `make benchsmoke` stays fast.
func ExactOPTSuite() []Spec {
	return []Spec{
		exactSpec("exact/bb/medium", mediumExactInstance, false),
		exactSpec("exact/ref/medium", mediumExactInstance, true),
	}
}

// smallExactInstance is a batched 4-color instance the legacy reference
// solver still handles in well under a second — small enough for the
// default suite, hard enough that pruning cannot collapse the search.
func smallExactInstance() (*sched.Instance, int) {
	return workload.RandomBatched(2, 4, 2, 24, []int{1, 2, 4}, 0.8, 0.8, true), 2
}

// mediumExactInstance is the pinned medium instance of the exact-solver
// performance claim (docs/PERFORMANCE.md): 8 colors, delay menu
// {1,2,4,8,16}, 80 rounds, m=2 — ≈610k expanded states, beyond the
// pre-PR-4 200k-state BracketOPT budget but within the new 2M one.
// internal/offline's BenchmarkBruteForceMedium uses the same shape;
// change both together.
func mediumExactInstance() (*sched.Instance, int) {
	return workload.RandomBatched(3, 8, 2, 80, []int{1, 2, 4, 8, 16}, 0.9, 0.9, true), 2
}

// exactSpec measures one exact solve per op — the branch-and-bound
// solver or the legacy reference DFS — on a fixed instance, with the
// expanded-state count as the rate denominator. Both solvers count only
// memo misses as states and agree on the state space, so their
// states_per_sec compare directly.
func exactSpec(name string, mk func() (*sched.Instance, int), reference bool) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		inst, m := mk()
		var states int
		var op func() error
		if reference {
			_, n, err := offline.ReferenceBruteForce(inst, m, 16_000_000)
			if err != nil {
				panic(fmt.Sprintf("bench: %s probe solve: %v", name, err))
			}
			states = n
			op = func() error {
				_, _, err := offline.ReferenceBruteForce(inst, m, 16_000_000)
				return err
			}
		} else {
			_, st, err := offline.SolveExactStats(inst, m, offline.ExactOptions{MaxStates: 16_000_000})
			if err != nil {
				panic(fmt.Sprintf("bench: %s probe solve: %v", name, err))
			}
			states = int(st.States)
			op = func() error {
				_, err := offline.SolveExact(inst, m, offline.ExactOptions{MaxStates: 16_000_000})
				return err
			}
		}
		return op, Rates{States: states}
	}}
}

// bracketSpec measures a full BracketOPT — static seed, local search,
// then the seeded exact search — the composite operation experiments
// call per instance.
func bracketSpec(name string, mk func() (*sched.Instance, int)) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		inst, m := mk()
		op := func() error {
			_, err := offline.BracketOPT(inst, m, 2)
			return err
		}
		return op, Rates{Rounds: inst.NumRounds(), Jobs: inst.TotalJobs()}
	}}
}

// fullRunSpec measures a complete sched.Run of a policy over a fixed
// mid-size router trace (the same one bench_test.go's Engine benchmarks
// use), yielding meaningful rounds/s and jobs/s rates.
func fullRunSpec(name string, mk func() sched.Policy) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		inst := workload.Router(3, 4, 8, 4096, 12)
		probe, err := sched.Run(inst, mk(), sched.Options{N: 16})
		if err != nil {
			panic(fmt.Sprintf("bench: %s probe run: %v", name, err))
		}
		op := func() error {
			_, err := sched.Run(inst, mk(), sched.Options{N: 16})
			return err
		}
		return op, Rates{Rounds: probe.Rounds, Jobs: inst.TotalJobs()}
	}}
}

// stepSpec measures one steady-state Stream.Step for a policy — the full
// per-round dataplane cost. The stream is warmed before measurement so
// the op exercises the zero-allocation contract (allocs_per_op must stay
// 0; -compare flags any growth).
func stepSpec(name string, mk func() sched.Policy) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		st, err := sched.NewStream(mk(), sched.StreamConfig{
			N: 16, Delta: 4, Delays: []int{2, 8, 4, 16, 2, 8, 4, 16},
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", name, err))
		}
		// Unsorted request with a duplicate batch so every Step pays for
		// normalization too; same shape as the alloc-pinning tests.
		req := sched.Request{
			{Color: 5, Count: 2}, {Color: 1, Count: 1}, {Color: 3, Count: 2},
			{Color: 1, Count: 1}, {Color: 7, Count: 2},
		}
		jobs := 0
		for _, b := range req {
			jobs += b.Count
		}
		for i := 0; i < 512; i++ { // steady state: warm buffers, bounded pool
			if _, err := st.Step(req); err != nil {
				panic(fmt.Sprintf("bench: %s warm-up: %v", name, err))
			}
		}
		op := func() error {
			_, err := st.Step(req)
			return err
		}
		return op, Rates{Rounds: 1, Jobs: jobs}
	}}
}

// serveServer boots a loopback rrserved with tenants open tenants and a
// connected client, for the serve/* specs. Spec.Make has no teardown
// hook, so each sample leaks one in-process server for the remainder of
// the rrbench run — a few listeners and shard goroutines, harmless for
// a measurement process that exits right after.
func serveServer(name string, tenants int) (*serve.Client, []string) {
	srv, err := serve.NewServer(serve.Config{Addr: "127.0.0.1:0", DefaultQueueCap: 4096})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", name, err))
	}
	go srv.Serve()
	return openBenchTenants(name, srv.Addr().String(), tenants)
}

// proxyServer boots a 3-backend fleet behind an rrproxy router with the
// client connected to the proxy, for the serve/proxy/* specs. They pair
// with the serve/submit/* specs built on serveServer: the delta between
// a spec and its proxied twin is the routing tier's per-round tax (peek,
// route, relay, extra loopback hop). Same teardown caveat as
// serveServer.
func proxyServer(name string, tenants int) (*serve.Client, []string) {
	addrs := make([]string, 3)
	for i := range addrs {
		srv, err := serve.NewServer(serve.Config{Addr: "127.0.0.1:0", DefaultQueueCap: 4096})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: %v", name, err))
		}
		go srv.Serve()
		addrs[i] = srv.Addr().String()
	}
	px, err := proxy.New(proxy.Config{Addr: "127.0.0.1:0", Backends: addrs})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", name, err))
	}
	go px.Serve()
	return openBenchTenants(name, px.Addr().String(), tenants)
}

// openBenchTenants dials addr and opens the standard bench tenants.
func openBenchTenants(name, addr string, tenants int) (*serve.Client, []string) {
	cl, err := serve.Dial(addr)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", name, err))
	}
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%03d", i)
		_, _, err := cl.Open(ids[i], serve.TenantConfig{
			Policy: "dlruedf", N: 16, Delta: 4,
			Delays: []int{2, 8, 4, 16, 2, 8, 4, 16},
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %s: opening %s: %v", name, ids[i], err))
		}
	}
	return cl, ids
}

// serveSubmitSpec measures one steady-state Submit round-trip over
// loopback TCP — frame encode, server decode, admission, eager round
// application and the acknowledgement — rotating across tenants. This
// is the served counterpart of step/*: the delta between them is the
// wire and admission overhead per round. boot picks the topology —
// serveServer measures the direct path, proxyServer the routed one.
func serveSubmitSpec(name string, tenants int, boot func(string, int) (*serve.Client, []string)) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		cl, ids := boot(name, tenants)
		req := sched.Request{
			{Color: 5, Count: 2}, {Color: 1, Count: 1}, {Color: 3, Count: 2},
			{Color: 1, Count: 1}, {Color: 7, Count: 2},
		}
		jobs := 0
		for _, b := range req {
			jobs += b.Count
		}
		seqs := make([]int, len(ids))
		turn := 0
		op := func() error {
			i := turn
			turn = (turn + 1) % len(ids)
			for {
				_, _, err := cl.Submit(ids[i], seqs[i], req)
				if err == nil {
					seqs[i]++
					return nil
				}
				if !errors.Is(err, serve.ErrOverloaded) {
					return err
				}
				// The round engine fell behind the submit loop; yield
				// until the queue drains rather than failing the run.
				runtime.Gosched()
			}
		}
		return op, Rates{Rounds: 1, Jobs: jobs}
	}}
}

// servePipelinedSpec measures the pipelined wire path: each op stages
// batch consecutive rounds for one tenant (rotating across tenants)
// into a pipelined window of frames, so the round trip is
// amortized over the window and the framing over the batch. The ratio
// of its rounds_per_sec to serve/submit/*'s is the wire-path tax the
// pipelining recovers; the floor is step/*, the bare engine cost. boot
// picks the topology, as in serveSubmitSpec.
func servePipelinedSpec(name string, tenants, window, batch int, boot func(string, int) (*serve.Client, []string)) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		cl, ids := boot(name, tenants)
		req := sched.Request{
			{Color: 5, Count: 2}, {Color: 1, Count: 1}, {Color: 3, Count: 2},
			{Color: 1, Count: 1}, {Color: 7, Count: 2},
		}
		jobs := 0
		for _, b := range req {
			jobs += b.Count
		}
		ticks := make([]sched.Request, batch)
		for i := range ticks {
			ticks[i] = req
		}
		idx := make(map[string]int, len(ids))
		for i, id := range ids {
			idx[id] = i
		}
		// cursors tracks the next sequence to stage per tenant. A frame can
		// be rejected after later ones were staged (the window runs ahead of
		// acknowledgements), so rejections rewind the cursor — every round
		// carries the same tick, making re-staging trivially idempotent.
		cursors := make([]int, len(ids))
		var fail error
		behind := false
		pl := cl.NewPipeline(window, func(r serve.SubmitResult) {
			if r.Err == nil {
				return
			}
			var bs *serve.BadSeqError
			switch i := idx[r.Tenant]; {
			case errors.As(r.Err, &bs):
				cursors[i] = bs.Expected
			case errors.Is(r.Err, serve.ErrOverloaded):
				// The round engine fell behind the submit window; resume at
				// the shed round and yield so the queue can drain.
				cursors[i] = r.Seq + r.Admitted
				behind = true
			default:
				fail = r.Err
			}
		})
		turn := 0
		op := func() error {
			if fail != nil {
				return fail
			}
			i := turn
			turn = (turn + 1) % len(ids)
			// Advance the cursor before staging: the pipeline call reaps
			// acknowledgements first, and a rewind reaped there must not be
			// stomped afterwards or the cursor never recovers.
			seq := cursors[i]
			cursors[i] = seq + batch
			err := pl.SubmitBatch(ids[i], seq, ticks)
			if behind {
				behind = false
				runtime.Gosched()
			}
			return err
		}
		return op, Rates{Rounds: batch, Jobs: jobs * batch}
	}}
}

// serveStatsSpec measures the stats command aggregating every tenant's
// row — the monitoring-path cost at fleet width. Its name keeps the
// "stats-ex" it was recorded under since BENCH_pr6.json, so the series
// stays comparable across recordings.
func serveStatsSpec(name string, tenants int) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		cl, ids := serveServer(name, tenants)
		req := sched.Request{{Color: 2, Count: 1}}
		for i, id := range ids {
			if _, _, err := cl.Submit(id, 0, req); err != nil {
				panic(fmt.Sprintf("bench: %s: seeding %s: %v", name, ids[i], err))
			}
		}
		op := func() error {
			rows, err := cl.Stats("")
			if err == nil && len(rows) != len(ids) {
				err = fmt.Errorf("stats returned %d rows, want %d", len(rows), len(ids))
			}
			return err
		}
		return op, Rates{}
	}}
}

// serveCkptSpec measures durable submit throughput: 64 tenants behind
// one connection, every applied round checkpoint-due (CheckpointEvery
// 1) unless adaptive pacing picks the cadence. The tiny queue cap
// couples the submit loop to the shard workers via overload
// backpressure, so the measured rate is applied-and-checkpointed
// throughput — every round an append into the group-commit log whose
// fsyncs the background committer batches. Extra records the log's
// DuraStats so a run shows the fsync collapse (and, under
// -ckpt-adaptive, how many appends the pacer chose) rather than just
// the throughput.
func serveCkptSpec(name string, adaptive bool) Spec {
	const tenants = 64
	type readout struct{ cl *serve.Client }
	ro := &readout{}
	return Spec{
		Name: name,
		Make: func() (func() error, Rates) {
			dir, err := os.MkdirTemp("", "rrbench-ckpt-")
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			srv, err := serve.NewServer(serve.Config{
				Addr:            "127.0.0.1:0",
				CheckpointDir:   dir,
				CheckpointEvery: 1,
				CkptAdaptive:    adaptive,
				DefaultQueueCap: 4,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			go srv.Serve()
			cl, err := serve.Dial(srv.Addr().String())
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			ro.cl = cl
			ids := make([]string, tenants)
			for i := range ids {
				ids[i] = fmt.Sprintf("ckpt-%03d", i)
				_, _, err = cl.Open(ids[i], serve.TenantConfig{
					Policy: "dlruedf", N: 16, Delta: 4,
					Delays: []int{2, 8, 4, 16, 2, 8, 4, 16},
				})
				if err != nil {
					panic(fmt.Sprintf("bench: %s: opening %s: %v", name, ids[i], err))
				}
			}
			req := sched.Request{
				{Color: 5, Count: 2}, {Color: 1, Count: 1}, {Color: 3, Count: 2},
				{Color: 1, Count: 1}, {Color: 7, Count: 2},
			}
			jobs := 0
			for _, b := range req {
				jobs += b.Count
			}
			seqs := make([]int, tenants)
			turn := 0
			op := func() error {
				i := turn
				turn = (turn + 1) % tenants
				for {
					_, _, err := cl.Submit(ids[i], seqs[i], req)
					if err == nil {
						seqs[i]++
						return nil
					}
					if !errors.Is(err, serve.ErrOverloaded) {
						return err
					}
					// The worker is busy checkpointing; backpressure, don't
					// fail — the stall is the cost being measured.
					runtime.Gosched()
				}
			}
			return op, Rates{Rounds: 1, Jobs: jobs}
		},
		Extra: func() map[string]float64 {
			if ro.cl == nil {
				return nil
			}
			st, err := ro.cl.DuraStats()
			if err != nil {
				return nil
			}
			return map[string]float64{
				"dura_appends":  float64(st.Appends),
				"dura_fsyncs":   float64(st.Fsyncs),
				"dura_bytes":    float64(st.Bytes),
				"dura_deltas":   float64(st.Deltas),
				"dura_segments": float64(st.Segments),
			}
		},
	}
}

// serveSkewedSpec measures one wave of skewed 64-tenant load through a
// single-shard server under the named cross-tenant allocator: tenant 0
// repeatedly dumps an adversarial Appendix-A burst in deep pipelined
// batch frames while 63 victim tenants strict-submit Zipf-sized router
// traces concurrently, and the op waits until the whole backlog drains.
// The server runs paced (RoundInterval set), so worker capacity is an
// explicit budget — one round per backlogged tenant per tick — and the
// allocator controls only its distribution: aggregate throughput is
// equal across allocators by construction, making the comparison
// machine-independent (an eager worker's capacity is CPU share, which
// on a loaded host the Go scheduler, not the allocator, decides). The
// quality difference is the Extra metric worst_victim_delay_factor —
// the worst victim tenant's delay-factor high-water mark. The
// adversary's own delay factor is excluded: its backlog is
// self-inflicted and near-identical under any allocator, while the
// victims' backlog is precisely what the allocator controls.
// docs/SCHEDULING.md quotes the wdrr-vs-fifo ratio.
func serveSkewedSpec(name, allocator string) Spec {
	const (
		tenants   = 64
		advRepeat = 16 // trace replays per op; keeps the burst pumping for the whole wave
		advWindow = 16 // pipelined batch frames in flight, so real depth builds
	)
	// The Extra hook reads the final sample's server after measurement,
	// so the spec closure carries the last-built client across Make calls.
	type readout struct {
		cl  *serve.Client
		ids []string
	}
	ro := &readout{}
	return Spec{
		Name: name,
		Make: func() (func() error, Rates) {
			insts, err := workload.SkewedFleet(11, tenants, 8, 48, 1.0, 6)
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			srv, err := serve.NewServer(serve.Config{
				Addr: "127.0.0.1:0", DefaultQueueCap: 16384,
				Shards: 1, Allocator: allocator,
				RoundInterval: 200 * time.Microsecond,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			go srv.Serve()
			cls := make([]*serve.Client, tenants)
			ids := make([]string, tenants)
			seqs := make([]int, tenants)
			totalRounds, totalJobs := 0, 0
			for i := range cls {
				cl, err := serve.Dial(srv.Addr().String())
				if err != nil {
					panic(fmt.Sprintf("bench: %s: %v", name, err))
				}
				cls[i] = cl
				ids[i] = fmt.Sprintf("skew-%03d", i)
				_, _, err = cl.Open(ids[i], serve.TenantConfig{
					Policy: "dlruedf", N: 16,
					Delta: insts[i].Delta, Delays: insts[i].Delays,
					QueueCap: 16384,
				})
				if err != nil {
					panic(fmt.Sprintf("bench: %s: opening %s: %v", name, ids[i], err))
				}
				mult := 1
				if i == 0 {
					mult = advRepeat
				}
				totalRounds += mult * insts[i].NumRounds()
				totalJobs += mult * insts[i].TotalJobs()
			}
			ro.cl, ro.ids = cls[0], ids
			op := func() error {
				errs := make([]error, tenants)
				var wg sync.WaitGroup
				wg.Add(tenants)
				go func() { // the adversary: a pipelined window of deep batch frames
					defer wg.Done()
					// The queue cap exceeds everything the window can hold in
					// flight, so no frame can be shed; any acknowledgement
					// error fails the op loudly.
					pl := cls[0].NewPipeline(advWindow, func(r serve.SubmitResult) {
						if r.Err != nil && errs[0] == nil {
							errs[0] = r.Err
						}
					})
					trace := insts[0].Requests
					for r := 0; r < advRepeat && errs[0] == nil; r++ {
						cursor := 0
						for cursor < len(trace) {
							k := min(serve.MaxBatch, len(trace)-cursor)
							if err := pl.SubmitBatch(ids[0], seqs[0], trace[cursor:cursor+k]); err != nil {
								errs[0] = err
								return
							}
							seqs[0] += k
							cursor += k
						}
					}
					if err := pl.Flush(); err != nil && errs[0] == nil {
						errs[0] = err
					}
				}()
				for i := 1; i < tenants; i++ {
					go func(i int) { // a victim: strict one-round submits
						defer wg.Done()
						for _, req := range insts[i].Requests {
							for {
								_, _, err := cls[i].Submit(ids[i], seqs[i], req)
								if err == nil {
									seqs[i]++
									break
								}
								if !errors.Is(err, serve.ErrOverloaded) {
									errs[i] = err
									return
								}
								runtime.Gosched()
							}
						}
					}(i)
				}
				wg.Wait()
				for _, e := range errs {
					if e != nil {
						return e
					}
				}
				// The op covers the wave end to end: wait for the shard
				// worker to apply the whole backlog, so rounds_per_sec is
				// applied throughput, not just admission throughput.
				for {
					rows, err := cls[0].Stats("")
					if err != nil {
						return err
					}
					depth := 0
					for _, r := range rows {
						depth += r.QueueDepth
					}
					if depth == 0 {
						return nil
					}
					runtime.Gosched()
				}
			}
			return op, Rates{Rounds: totalRounds, Jobs: totalJobs}
		},
		Extra: func() map[string]float64 {
			if ro.cl == nil {
				return nil
			}
			rows, err := ro.cl.Stats("")
			if err != nil {
				return nil
			}
			worst := 0.0
			for _, r := range rows {
				if r.ID == ro.ids[0] {
					continue // self-inflicted; see the spec comment
				}
				if r.MaxDelayFactor > worst {
					worst = r.MaxDelayFactor
				}
			}
			return map[string]float64{"worst_victim_delay_factor": worst}
		},
	}
}

// serveBDRSkewedSpec is the admission-control variant of the skewed
// wave (docs/SCHEDULING.md "Admission (layer 0)"): the same adversarial
// 64-tenant load against a -bdr server, with the victims holding BDR
// reservations from workload.ReservedFleet — jointly half the shard —
// and the adversary's own 0.9 reservation rejected at admission (the
// typed error is asserted, not tolerated), after which it runs
// best-effort. Extra records worst_reserved_delay_factor, the reserved
// victims' delay-factor high-water mark: the admission guarantee says
// it stays ≤ 1.0 however hard the adversary pumps, which is the
// quality bar BENCH comparisons watch.
//
// rounds_per_sec here is NOT comparable to serve/skewed/*: the budget
// floors keep the reserved victims' queues shallow, so fewer tenants
// are backlogged per paced tick and the worker's
// one-round-per-backlogged-tenant budget is smaller — the adversary's
// self-inflicted backlog drains slower precisely because the victims
// are no longer queueing behind it. advRepeat is reduced accordingly
// to keep the op short.
func serveBDRSkewedSpec(name string) Spec {
	const (
		tenants   = 64
		advRepeat = 4
		advWindow = 16
		resDelay  = 64
	)
	type readout struct {
		cl  *serve.Client
		ids []string
	}
	ro := &readout{}
	return Spec{
		Name: name,
		Make: func() (func() error, Rates) {
			insts, res, err := workload.ReservedFleet(11, tenants, 8, 48, 1.0, 6, resDelay)
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			srv, err := serve.NewServer(serve.Config{
				Addr: "127.0.0.1:0", DefaultQueueCap: 16384,
				Shards: 1, BDR: true,
				RoundInterval: 200 * time.Microsecond,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: %s: %v", name, err))
			}
			go srv.Serve()
			cls := make([]*serve.Client, tenants)
			ids := make([]string, tenants)
			seqs := make([]int, tenants)
			totalRounds, totalJobs := 0, 0
			open := func(i int, r workload.Reservation) error {
				tc := serve.TenantConfig{
					Policy: "dlruedf", N: 16,
					Delta: insts[i].Delta, Delays: insts[i].Delays,
					QueueCap: 16384,
					ResRate:  r.Rate, ResDelay: r.Delay,
				}
				_, _, err := cls[i].Open(ids[i], tc)
				return err
			}
			for i := range cls {
				cl, err := serve.Dial(srv.Addr().String())
				if err != nil {
					panic(fmt.Sprintf("bench: %s: %v", name, err))
				}
				cls[i] = cl
				ids[i] = fmt.Sprintf("skew-%03d", i)
				mult := 1
				if i == 0 {
					mult = advRepeat
				}
				totalRounds += mult * insts[i].NumRounds()
				totalJobs += mult * insts[i].TotalJobs()
			}
			// Victims first: their reservations are jointly feasible in
			// any order and must hold the shard before the adversary asks.
			for i := 1; i < tenants; i++ {
				if err := open(i, res[i]); err != nil {
					panic(fmt.Sprintf("bench: %s: opening %s: %v", name, ids[i], err))
				}
			}
			// The adversary's 0.9 cannot fit the residual half: the typed
			// rejection is the admission story this spec exists to pin.
			var ae *serve.AdmissionError
			if err := open(0, res[0]); !errors.As(err, &ae) {
				panic(fmt.Sprintf("bench: %s: adversary reserved open = %v, want *serve.AdmissionError", name, err))
			}
			if err := open(0, workload.Reservation{}); err != nil {
				panic(fmt.Sprintf("bench: %s: adversary best-effort open: %v", name, err))
			}
			ro.cl, ro.ids = cls[0], ids
			op := func() error {
				errs := make([]error, tenants)
				var wg sync.WaitGroup
				wg.Add(tenants)
				go func() { // the adversary: a pipelined window of deep batch frames
					defer wg.Done()
					pl := cls[0].NewPipeline(advWindow, func(r serve.SubmitResult) {
						if r.Err != nil && errs[0] == nil {
							errs[0] = r.Err
						}
					})
					trace := insts[0].Requests
					for r := 0; r < advRepeat && errs[0] == nil; r++ {
						cursor := 0
						for cursor < len(trace) {
							k := min(serve.MaxBatch, len(trace)-cursor)
							if err := pl.SubmitBatch(ids[0], seqs[0], trace[cursor:cursor+k]); err != nil {
								errs[0] = err
								return
							}
							seqs[0] += k
							cursor += k
						}
					}
					if err := pl.Flush(); err != nil && errs[0] == nil {
						errs[0] = err
					}
				}()
				for i := 1; i < tenants; i++ {
					go func(i int) { // a reserved victim: strict one-round submits
						defer wg.Done()
						for _, req := range insts[i].Requests {
							for {
								_, _, err := cls[i].Submit(ids[i], seqs[i], req)
								if err == nil {
									seqs[i]++
									break
								}
								if !errors.Is(err, serve.ErrOverloaded) {
									errs[i] = err
									return
								}
								runtime.Gosched()
							}
						}
					}(i)
				}
				wg.Wait()
				for _, e := range errs {
					if e != nil {
						return e
					}
				}
				for {
					rows, err := cls[0].Stats("")
					if err != nil {
						return err
					}
					depth := 0
					for _, r := range rows {
						depth += r.QueueDepth
					}
					if depth == 0 {
						return nil
					}
					runtime.Gosched()
				}
			}
			return op, Rates{Rounds: totalRounds, Jobs: totalJobs}
		},
		Extra: func() map[string]float64 {
			if ro.cl == nil {
				return nil
			}
			rows, err := ro.cl.Stats("")
			if err != nil {
				return nil
			}
			worst := 0.0
			for _, r := range rows {
				if r.ReservedRate == 0 {
					continue // the adversary runs best-effort; only guarantees count
				}
				if r.MaxDelayFactor > worst {
					worst = r.MaxDelayFactor
				}
			}
			return map[string]float64{"worst_reserved_delay_factor": worst}
		},
	}
}

// sweepSpec measures the sharded sweep runner end to end: 16 independent
// ΔLRU-EDF simulations of 256 rounds each. workers 0 means GOMAXPROCS,
// so serial vs parallel quantifies the runner's scaling on this host
// (≈1.0 on a single-core machine — see docs/PERFORMANCE.md).
func sweepSpec(name string, workers int) Spec {
	return Spec{Name: name, Make: func() (func() error, Rates) {
		seeds := make([]uint64, 16)
		for i := range seeds {
			seeds[i] = 900 + uint64(i)
		}
		rounds, jobs := 0, 0
		for _, seed := range seeds {
			in := workload.Router(seed, 4, 8, 256, 12)
			r, err := sched.Run(in, core.NewDLRUEDF(), sched.Options{N: 16})
			if err != nil {
				panic(fmt.Sprintf("bench: %s probe run: %v", name, err))
			}
			rounds += r.Rounds
			jobs += in.TotalJobs()
		}
		op := func() error {
			_, err := exp.Sweep(workers, seeds, func(seed uint64) (int64, error) {
				in := workload.Router(seed, 4, 8, 256, 12)
				r, err := sched.Run(in, core.NewDLRUEDF(), sched.Options{N: 16})
				if err != nil {
					return 0, err
				}
				return r.Cost.Total(), nil
			})
			return err
		}
		return op, Rates{Rounds: rounds, Jobs: jobs}
	}}
}
