package proxy

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// startBackend boots one rrserved backend on a loopback port. Killing
// it mid-test with Close is fine — the cleanup's second Close is a
// no-op and still collects Serve's return.
func startBackend(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("backend serve: %v", err)
		}
	})
	return s
}

// startFleet boots n backends plus a proxy over them (and a standby
// backend when withStandby). It returns the proxy, the backends, and
// the standby (nil without one).
func startFleet(t *testing.T, n int, withStandby bool) (*Proxy, []*serve.Server, *serve.Server) {
	t.Helper()
	backends := make([]*serve.Server, n)
	addrs := make([]string, n)
	for i := range backends {
		backends[i] = startBackend(t, serve.Config{})
		addrs[i] = backends[i].Addr().String()
	}
	var standby *serve.Server
	cfg := Config{Addr: "127.0.0.1:0", Backends: addrs, Logf: t.Logf}
	if withStandby {
		standby = startBackend(t, serve.Config{})
		cfg.Standby = standby.Addr().String()
	}
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- px.Serve() }()
	t.Cleanup(func() {
		px.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return px, backends, standby
}

// TestProxyBasicVerify: a full verified load run through the proxy must
// be indistinguishable from one against a single server — every round
// admitted exactly once, results bit-identical to the local replay —
// while the tenants actually spread across all backends.
func TestProxyBasicVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	for _, mode := range []struct {
		name            string
		pipeline, batch int
	}{
		{"strict", 0, 0},
		{"pipelined", 16, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			px, backends, _ := startFleet(t, 3, false)
			rep, err := serve.RunLoad(serve.LoadConfig{
				Addr:     px.Addr().String(),
				Tenants:  32,
				Params:   workload.Params{Rounds: 40, Seed: 7},
				Pipeline: mode.pipeline,
				Batch:    mode.batch,
				Verify:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Mismatches) != 0 {
				t.Fatalf("tenants with non-identical results through proxy: %v", rep.Mismatches)
			}
			if want := int64(32 * 40); rep.RoundsSent != want {
				t.Fatalf("RoundsSent = %d, want %d", rep.RoundsSent, want)
			}
			if rep.Reconnects != 0 {
				t.Fatalf("healthy fleet forced %d reconnects", rep.Reconnects)
			}
			total := 0
			for i, b := range backends {
				n := b.NumTenants()
				if n == 0 {
					t.Errorf("backend %d hosts no tenants — sharding is not spreading", i)
				}
				total += n
			}
			if total != 32 {
				t.Fatalf("backends host %d tenants total, want 32", total)
			}
		})
	}
}

// TestProxyStatsFanout: all-tenant stats are answered at the proxy by
// fanning out and merging — one row per fleet tenant, sorted by tenant
// ID, service shares recomputed fleet-wide — while single-tenant
// requests relay to the owning backend, so a single row's share is its
// backend's: 0.5 of the 2+2 split's one backend, against 0.25 of the
// fleet.
func TestProxyStatsFanout(t *testing.T) {
	px, backends, _ := startFleet(t, 2, false)
	addrs := []string{backends[0].Addr().String(), backends[1].Addr().String()}

	// Pick tenant names landing two on each backend, so the merge has
	// real work on both sides.
	names := make([]string, 0, 4)
	perNode := make(map[int]int)
	for i := 0; len(names) < 4; i++ {
		name := fmt.Sprintf("stat-%03d", i)
		node := Pick(addrs, name)
		if perNode[node] < 2 {
			perNode[node]++
			names = append(names, name)
		}
	}

	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}
	for _, name := range names {
		if _, _, err := c.Open(name, tc); err != nil {
			t.Fatalf("open %s through proxy: %v", name, err)
		}
		if _, _, err := c.Submit(name, 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
			t.Fatalf("submit %s through proxy: %v", name, err)
		}
		if _, err := c.DrainTenant(name); err != nil {
			t.Fatalf("drain %s through proxy: %v", name, err)
		}
	}
	if backends[0].NumTenants() != 2 || backends[1].NumTenants() != 2 {
		t.Fatalf("tenants split %d/%d across backends, want 2/2",
			backends[0].NumTenants(), backends[1].NumTenants())
	}

	rows, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("fleet stats returned %d rows, want 4", len(rows))
	}
	var shares float64
	for i, r := range rows {
		if i > 0 && rows[i-1].ID >= r.ID {
			t.Fatalf("fleet stats rows not sorted: %q before %q", rows[i-1].ID, r.ID)
		}
		if r.ServedRounds != 1 {
			t.Fatalf("tenant %s ServedRounds = %d, want 1", r.ID, r.ServedRounds)
		}
		shares += r.ServiceShare
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("fleet-wide service shares sum to %v, want 1", shares)
	}

	one, err := c.Stats(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].ID != names[0] {
		t.Fatalf("single-tenant stats through proxy = %+v, want one row for %s", one, names[0])
	}
	i := slices.IndexFunc(rows, func(r serve.TenantStats) bool { return r.ID == names[0] })
	if one[0].ServiceShare != 0.5 || rows[i].ServiceShare != 0.25 {
		t.Fatalf("%s's ServiceShare = %v alone, %v among the fleet's rows; want its backend's 0.5 and the fleet's 0.25",
			names[0], one[0].ServiceShare, rows[i].ServiceShare)
	}
}

// TestProxyStatsMergeFailover: after a backend dies, the fleet rows
// merge the live backends' runs with the standby's rows for the tenants
// that failed over to it, still one row per tenant in ID order. Two
// tenants per backend over three backends, and the dead one owns a
// tenant whose ID sorts between the live backends' rows, so its standby
// row lands mid-merge.
func TestProxyStatsMergeFailover(t *testing.T) {
	px, backends, standby := startFleet(t, 3, true)
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.Addr().String()
	}
	names := spreadNames(addrs, 2)
	slices.Sort(names)
	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	openTenants(t, c, names)
	for deadline := time.Now().Add(5 * time.Second); standby.NumTenants() < len(names); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("standby holds %d of %d teed tenants", standby.NumTenants(), len(names))
		}
	}

	victim := Pick(addrs, names[len(names)/2])
	if err := backends[victim].Close(); err != nil {
		t.Fatal(err)
	}
	px.probeBackend(addrs[victim])
	// The dead upstream tore down c's front connection; read on a new one.
	c2, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rows, err := c2.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = r.ID
		if r.ServedRounds != 1 {
			t.Errorf("tenant %s ServedRounds = %d, want 1", r.ID, r.ServedRounds)
		}
	}
	if !slices.Equal(got, names) {
		t.Fatalf("fleet rows after failover = %v, want every tenant once in ID order %v", got, names)
	}
	if standby := px.route(names[len(names)/2]); standby != px.cfg.Standby {
		t.Fatalf("%s routes to %s, want the standby", names[len(names)/2], standby)
	}
}

// TestProxyFailover is the acceptance scenario: 3 backends plus a warm
// standby, a verified load run, one backend killed mid-run. Its tenants
// must fail over to the standby — which has been replaying the teed
// submit stream — and every final result must stay bit-identical to the
// local replay, in both the strict and pipelined driver modes.
func TestProxyFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	for _, mode := range []struct {
		name            string
		pipeline, batch int
	}{
		{"strict", 0, 0},
		{"pipelined", 16, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			px, backends, standby := startFleet(t, 3, true)
			addrs := make([]string, len(backends))
			for i, b := range backends {
				addrs[i] = b.Addr().String()
			}

			var rep *serve.LoadReport
			var lerr error
			loadDone := make(chan struct{})
			go func() {
				defer close(loadDone)
				rep, lerr = serve.RunLoad(serve.LoadConfig{
					Addr:         px.Addr().String(),
					Tenants:      64,
					Params:       workload.Params{Rounds: 80, Seed: 5},
					Rate:         120, // ~670ms of paced submits per tenant
					Pipeline:     mode.pipeline,
					Batch:        mode.batch,
					Verify:       true,
					RetryTimeout: 20 * time.Second,
				})
			}()

			time.Sleep(250 * time.Millisecond) // land the kill mid-run
			victim := Pick(addrs, "load-000")  // guaranteed to own tenants
			if err := backends[victim].Close(); err != nil {
				t.Fatal(err)
			}

			<-loadDone
			if lerr != nil {
				t.Fatal(lerr)
			}
			if len(rep.Mismatches) != 0 {
				t.Fatalf("tenants with non-identical results across failover: %v", rep.Mismatches)
			}
			// Reconnects counts failed re-dial attempts and stays 0 here —
			// the proxy accepts the very first retry and routes it to the
			// standby. Resumes counts the reconnect-and-rewind itself, once
			// per torn-down victim connection.
			if rep.Resumes == 0 {
				t.Fatalf("killing a backend forced no resumes — did the kill land mid-run?")
			}

			px.mu.Lock()
			dead := px.dead[addrs[victim]]
			px.mu.Unlock()
			if !dead {
				t.Fatalf("proxy never marked the killed backend %s dead", addrs[victim])
			}
			if got := px.route("load-000"); got != standby.Addr().String() {
				t.Fatalf("route(load-000) = %q after its backend died, want standby %q",
					got, standby.Addr().String())
			}
			if standby.NumTenants() == 0 {
				t.Fatalf("standby hosts no tenants — the tee never replicated")
			}

			// The fleet view must still cover every tenant: live backends'
			// rows plus the standby's rows for the failed-over tenants.
			c, err := serve.Dial(px.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rows, err := c.Stats("")
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 64 {
				t.Fatalf("fleet stats after failover returned %d rows, want 64", len(rows))
			}
			if n := px.TeeDropped(); n > 0 {
				t.Logf("standby tee dropped %d frames (recovered via sequence rewind)", n)
			}
		})
	}
}

// TestProxyDuraStatsFanout: the checkpoint-log counters ride the same
// all-tenant stats exchange as the rows — the proxy sums them across
// the backends that answered and attaches a per-backend breakdown
// labelled by address. Two durable backends give the sum real work to
// add up; a memory-only one must report an all-zero row.
func TestProxyDuraStatsFanout(t *testing.T) {
	// CheckpointEvery 1 makes every applied round append a log record,
	// so a submit + drain deterministically bumps the counters.
	cfgs := []serve.Config{
		{CheckpointDir: t.TempDir(), CheckpointEvery: 1},
		{CheckpointDir: t.TempDir(), CheckpointEvery: 1},
		{},
	}
	backends := make([]*serve.Server, len(cfgs))
	addrs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		backends[i] = startBackend(t, cfg)
		addrs[i] = backends[i].Addr().String()
	}
	px, err := New(Config{Addr: "127.0.0.1:0", Backends: addrs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- px.Serve() }()
	t.Cleanup(func() {
		px.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})

	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Land at least one tenant on each durable backend so both log rows
	// carry non-zero append counts.
	perNode := map[int]int{}
	tc := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}
	for i := 0; perNode[0] == 0 || perNode[1] == 0; i++ {
		name := fmt.Sprintf("dura-%03d", i)
		node := Pick(addrs, name)
		if node == 2 || perNode[node] > 0 {
			continue
		}
		perNode[node]++
		if _, _, err := c.Open(name, tc); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if _, _, err := c.Submit(name, 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		if _, err := c.DrainTenant(name); err != nil {
			t.Fatalf("drain %s: %v", name, err)
		}
	}

	rows, st, err := c.ReadOut("")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("fan-out returned %d tenant rows, want 2", len(rows))
	}
	if len(st.Backends) != 3 {
		t.Fatalf("fan-out returned %d backend rows, want 3", len(st.Backends))
	}
	byAddr := map[string]serve.BackendDuraStats{}
	var sumAppends, sumBytes, sumSegments int64
	for _, b := range st.Backends {
		if len(b.Backends) != 0 {
			t.Fatalf("backend row %s carries nested rows — fan-out must be one level", b.Addr)
		}
		byAddr[b.Addr] = b
		sumAppends += b.Appends
		sumBytes += b.Bytes
		sumSegments += b.Segments
	}
	for i, addr := range addrs {
		row, ok := byAddr[addr]
		if !ok {
			t.Fatalf("no row for backend %s", addr)
		}
		if i == 2 {
			if !reflect.DeepEqual(row.DuraStats, serve.DuraStats{}) {
				t.Fatalf("memory-only backend %s reports %+v, want all zero", addr, row.DuraStats)
			}
			continue
		}
		if row.Appends == 0 || row.Segments == 0 {
			t.Fatalf("durable backend %s shows %d appends over %d segments after a submit", addr, row.Appends, row.Segments)
		}
		if want := backends[i].DuraStats(); !reflect.DeepEqual(row.DuraStats, want) {
			t.Fatalf("backend %s row %+v, want its own counters %+v", addr, row.DuraStats, want)
		}
	}
	if st.Appends != sumAppends || st.Bytes != sumBytes || st.Segments != sumSegments {
		t.Fatalf("top-level counters (%d appends, %d bytes, %d segments) != sum of rows (%d, %d, %d)",
			st.Appends, st.Bytes, st.Segments, sumAppends, sumBytes, sumSegments)
	}
	if st.Appends == 0 {
		t.Fatal("fleet-wide appends = 0 after submits on durable backends")
	}
}

// startProxy boots a proxy over cfg and stops it at cleanup.
func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	cfg.Addr, cfg.Logf = "127.0.0.1:0", t.Logf
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- px.Serve() }()
	t.Cleanup(func() {
		px.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return px
}

// spreadNames picks perBackend tenant names the hash sends to each of
// addrs.
func spreadNames(addrs []string, perBackend int) []string {
	var names []string
	count := make(map[int]int)
	for i := 0; len(names) < perBackend*len(addrs); i++ {
		name := fmt.Sprintf("spread-%03d", i)
		if node := Pick(addrs, name); count[node] < perBackend {
			count[node]++
			names = append(names, name)
		}
	}
	return names
}

// openTenants opens each of names through c, feeds it one round and
// drains it.
func openTenants(t *testing.T, c *serve.Client, names []string) {
	t.Helper()
	tc := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}
	for _, name := range names {
		if _, _, err := c.Open(name, tc); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if _, _, err := c.Submit(name, 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		if _, err := c.DrainTenant(name); err != nil {
			t.Fatalf("drain %s: %v", name, err)
		}
	}
}

// TestProxyFanoutStalePool: a backend restarted on the same address
// leaves the proxy's pooled control connection to it stale. The next
// fleet stats must retry on a fresh dial — the backend's rows still
// arrive, and it is not marked dead.
func TestProxyFanoutStalePool(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	backends := make([]*serve.Server, 2)
	addrs := make([]string, 2)
	for i := range backends {
		backends[i] = startBackend(t, serve.Config{CheckpointDir: dirs[i]})
		addrs[i] = backends[i].Addr().String()
	}
	// Open the tenants on the backends directly: the proxy then holds no
	// per-tenant upstream whose failure would probe the killed backend
	// before it is back, only the pooled control connection.
	for i, addr := range addrs {
		dc, err := serve.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		openTenants(t, dc, []string{fmt.Sprintf("stale-%d-a", i), fmt.Sprintf("stale-%d-b", i)})
		dc.Close()
	}
	px := startProxy(t, Config{Backends: addrs})
	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rows, err := c.Stats(""); err != nil || len(rows) != 4 {
		t.Fatalf("fleet stats = %d rows, %v; want 4", len(rows), err)
	}
	px.ctl.mu.Lock()
	pooled := len(px.ctl.idle[addrs[0]])
	px.ctl.mu.Unlock()
	if pooled != 1 {
		t.Fatalf("%d idle control connections to %s after one stats, want 1", pooled, addrs[0])
	}

	// Kill backend 0 and restart it on the same address from its
	// checkpoints: the pooled connection now points at a dead process.
	if err := backends[0].Close(); err != nil {
		t.Fatal(err)
	}
	startBackend(t, serve.Config{Addr: addrs[0], CheckpointDir: dirs[0]})

	rows, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("fleet stats after backend restart = %d rows, want 4 (stale pooled connection not retried)", len(rows))
	}
	px.mu.Lock()
	dead := px.dead[addrs[0]]
	px.mu.Unlock()
	if dead {
		t.Fatalf("restarted backend %s marked dead", addrs[0])
	}
}

// TestProxyFanoutConcurrent: many clients issuing fleet stats at once
// share the control pool; every answer — the rows and the
// checkpoint-log counters of one read-out, and the tenant count of a
// second — must still be exact. Run under -race.
func TestProxyFanoutConcurrent(t *testing.T) {
	backends := []*serve.Server{
		startBackend(t, serve.Config{CheckpointDir: t.TempDir(), CheckpointEvery: 1}),
		startBackend(t, serve.Config{}),
	}
	addrs := []string{backends[0].Addr().String(), backends[1].Addr().String()}
	px := startProxy(t, Config{Backends: addrs})
	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	openTenants(t, c, spreadNames(addrs, 3))
	c.Close()
	const tenants = 6
	want := backends[0].DuraStats().Appends + backends[1].DuraStats().Appends
	if want == 0 {
		t.Fatal("durable backend shows no appends")
	}

	const clients, iters = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := serve.Dial(px.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				rows, st, err := c.ReadOut("")
				if err != nil || len(rows) != tenants {
					t.Errorf("stats = %d rows, %v; want %d", len(rows), err, tenants)
					return
				}
				if st.Appends != want || len(st.Backends) != 2 {
					t.Errorf("stats counters = %d appends over %d backend rows; want %d over 2",
						st.Appends, len(st.Backends), want)
					return
				}
				var served int64
				for _, r := range rows {
					served += r.ServedRounds
				}
				if served != tenants {
					t.Errorf("summed ServedRounds = %d, want %d", served, tenants)
					return
				}
				if rows, err := c.Stats(""); err != nil || len(rows) != tenants {
					t.Errorf("stats = %d rows, %v; want %d", len(rows), err, tenants)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// connCounter is a TCP relay in front of a backend that tracks how many
// connections the proxy holds open through it.
type connCounter struct {
	ln       net.Listener
	accepted atomic.Int64
	open     atomic.Int64
	closed   chan struct{} // one token per relayed connection that ends
}

func newConnCounter(t *testing.T, backend string) *connCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cc := &connCounter{ln: ln, closed: make(chan struct{}, 64)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				front.Close()
				continue
			}
			cc.accepted.Add(1)
			cc.open.Add(1)
			var once sync.Once
			done := func() {
				once.Do(func() {
					front.Close()
					back.Close()
					cc.open.Add(-1)
					cc.closed <- struct{}{}
				})
			}
			go func() { io.Copy(back, front); done() }()
			go func() { io.Copy(front, back); done() }()
		}
	}()
	return cc
}

// TestProxyFanoutPoolReuseAndClose: repeated fleet requests reuse one
// pooled control connection per backend instead of dialing per request,
// and Proxy.Close leaves no backend connection open.
func TestProxyFanoutPoolReuseAndClose(t *testing.T) {
	b := startBackend(t, serve.Config{})
	cc := newConnCounter(t, b.Addr().String())
	px := startProxy(t, Config{Backends: []string{cc.ln.Addr().String()}})
	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if _, err := c.Stats(""); err != nil {
			t.Fatal(err)
		}
	}
	if n := cc.accepted.Load(); n != 1 {
		t.Fatalf("20 sequential fleet requests opened %d backend connections, want 1", n)
	}

	px.Close()
	deadline := time.After(5 * time.Second)
	for cc.open.Load() > 0 {
		select {
		case <-cc.closed:
		case <-deadline:
			t.Fatalf("%d backend connections still open after Proxy.Close", cc.open.Load())
		}
	}
}

// TestFlushUpstreamsNoAlloc pins the per-burst upstream flush, run once
// per strict submit through the proxy, at zero allocations.
func TestFlushUpstreamsNoAlloc(t *testing.T) {
	fc := &frontConn{ups: make(map[string]*upstream)}
	for _, addr := range []string{"a", "b"} {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close(); far.Close() })
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := far.Read(buf); err != nil {
					return
				}
			}
		}()
		fc.ups[addr] = &upstream{addr: addr, conn: near, bw: bufio.NewWriter(near)}
	}
	frame := []byte("staged frame bytes")
	allocs := testing.AllocsPerRun(200, func() {
		for _, u := range fc.ups {
			u.bw.Write(frame) // stage without framing: only the flush is pinned
			u.dirty = true
		}
		if !fc.flushUpstreams() {
			t.Fatal("flush failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("flushUpstreams: %v allocs per burst, want 0", allocs)
	}
}

// TestProxyFanoutStalledBackend: a backend that accepts control
// connections and never answers on them must not hang fleet stats, nor
// Proxy.Close (rrproxy's SIGTERM path) behind it. Stats must return the
// healthy backend's rows within the fan-out's worst case, and Close
// must return while a fleet request still waits on the stalled backend.
// A watchdog fails the test instead of hanging it, then closes the
// stalled connections so a proxy without the deadline unwinds.
func TestProxyFanoutStalledBackend(t *testing.T) {
	healthy := startBackend(t, serve.Config{})
	dc, err := serve.Dial(healthy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	openTenants(t, dc, []string{"live"})
	dc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		held     []net.Conn
		released bool
	)
	// One token per connection on which the stalled backend got a
	// request; the test makes a few, so no sender ever blocks.
	requests := make(chan struct{}, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if released {
				conn.Close()
			}
			held = append(held, conn)
			mu.Unlock()
			go func() {
				if _, err := conn.Read(make([]byte, 1)); err == nil {
					requests <- struct{}{}
				}
			}()
		}
	}()
	release := func() {
		ln.Close()
		mu.Lock()
		released = true
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}

	px := startProxy(t, Config{Backends: []string{healthy.Addr().String(), ln.Addr().String()}})
	t.Cleanup(release) // runs before the proxy's cleanup Close
	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type result struct {
		rows []serve.TenantStats
		err  error
	}
	stats := func() <-chan result {
		ch := make(chan result, 1)
		go func() {
			rows, err := c.Stats("")
			ch <- result{rows, err}
		}()
		return ch
	}
	bound := 2*ctlTimeout + dialTimeout

	select {
	case r := <-stats():
		if r.err != nil || len(r.rows) != 1 || r.rows[0].ID != "live" {
			t.Fatalf("fleet stats with a stalled backend = %v, %v; want the healthy backend's one row", r.rows, r.err)
		}
	case <-time.After(bound):
		release()
		t.Fatalf("fleet stats still blocked after %v with one backend stalled", bound)
	}
	<-requests // the stats request the stalled backend got

	pending := stats()
	select {
	case <-requests:
	case <-time.After(bound):
		release()
		t.Fatal("second fleet request never reached the stalled backend")
	}
	closed := make(chan struct{})
	go func() { px.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(bound):
		release()
		t.Fatalf("Proxy.Close still blocked after %v behind a fleet request to a stalled backend", bound)
	}
	<-pending
}
