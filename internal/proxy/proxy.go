// Package proxy is the scale-out router tier in front of a fleet of
// rrserved backends (cmd/rrproxy). It speaks the serve wire protocol on
// the front — clients need no change — and fans out to N backends on
// the back, sharding tenants across them by rendezvous hashing on the
// tenant ID (Pick). Per-tenant requests are relayed byte-for-byte to
// the owning backend; the one fleet-wide request, all-tenant stats
// (whose read-out carries the checkpoint-log counters), is fanned out
// and merged at the proxy.
//
// The fan-out queries every backend concurrently, each on a pooled,
// persistent control connection, so a fleet request costs one backend
// round trip rather than a dial plus a round trip per backend in turn.
// A pooled connection that fails is treated as stale (the backend may
// have restarted on the same address): it is discarded and the request
// is retried once on a fresh dial before the backend counts as failed,
// which is safe because every fanned-out request is read-only. Every
// backend dial — relay, fan-out, death probe and standby tee alike — is
// bounded by dialTimeout, and every fan-out call by ctlTimeout.
//
// A warm standby (Config.Standby) makes the tier more than a load
// balancer: every state-mutating frame routed to a primary is teed —
// asynchronously, through a bounded buffer — to a standby backend
// running the same admission logic, so the standby trails the fleet by
// at most the buffer. When a primary dies, its tenants re-route to the
// standby and resume from the standby's sequence instead of rewinding
// to the last client-side checkpoint; tee overflow degrades to exactly
// that rewind (the sequence check on the standby rejects the gap) rather
// than ever corrupting state. A tenant never moves between live
// backends: placement is a pure function of the tenant ID and the dead
// set.
//
// See docs/SERVER.md "Fleet" for the placement and failover semantics.
package proxy

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/snap"
)

// Config configures a Proxy.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Backends lists the rrserved addresses tenants are sharded across.
	// Order does not matter for placement (rendezvous hashing scores
	// each address independently) but must be consistent across proxies
	// sharing a fleet.
	Backends []string
	// Standby, when non-empty, is the warm-standby backend: mutating
	// frames are teed to it and tenants of a dead backend re-route to
	// it. It must not also be listed in Backends.
	Standby string
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// dialTimeout bounds every backend dial, so a black-holed backend
// cannot hang a relay, a fleet request or a death probe.
const dialTimeout = time.Second

func (c *Config) validate() error {
	if len(c.Backends) == 0 {
		return errors.New("proxy: no backends configured")
	}
	for i, b := range c.Backends {
		if b == "" {
			return errors.New("proxy: empty backend address")
		}
		if slices.Index(c.Backends, b) != i {
			return fmt.Errorf("proxy: duplicate backend %s", b)
		}
		if b == c.Standby {
			return fmt.Errorf("proxy: standby %s is also a backend", b)
		}
	}
	return nil
}

// Proxy is the router: one listener, one lazily-dialed upstream per
// (client connection, backend) pair, a shared standby tee, a pool of
// control connections for the fleet-wide requests, and the routing
// table (hash + dead set).
type Proxy struct {
	cfg Config
	ln  net.Listener
	tee *tee
	ctl ctlPool

	mu sync.Mutex
	// dead marks backends that failed a liveness probe. Sticky for the
	// proxy's lifetime: a backend that died mid-run stays routed around
	// until the operator restarts the tier, because routing tenants back
	// to a restarted-but-empty backend would fork their history.
	dead  map[string]bool
	conns map[net.Conn]struct{}

	closing  atomic.Bool
	connWG   sync.WaitGroup
	stopOnce sync.Once
}

// New binds the proxy's listener. Call Serve to accept connections.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("proxy: listening on %s: %w", cfg.Addr, err)
	}
	p := &Proxy{
		cfg:   cfg,
		ln:    ln,
		dead:  make(map[string]bool),
		conns: make(map[net.Conn]struct{}),
		ctl:   ctlPool{idle: make(map[string][]*serve.Client)},
	}
	if cfg.Standby != "" {
		p.tee = newTee(cfg.Standby, p.logf)
	}
	return p, nil
}

// Addr reports the bound listen address (useful with ":0").
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// TeeDropped reports how many mutating frames the standby tee dropped
// (buffer overflow or standby unreachable) — each one a round the
// standby must recover via the clients' sequence rewind on failover.
func (p *Proxy) TeeDropped() int64 {
	if p.tee == nil {
		return 0
	}
	return p.tee.dropped.Load()
}

// Serve accepts connections until the listener closes. It returns nil
// after Close, and the accept error otherwise.
func (p *Proxy) Serve() error {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("proxy: accept: %w", err)
		}
		p.mu.Lock()
		if p.closing.Load() {
			p.mu.Unlock()
			c.Close()
			continue
		}
		p.conns[c] = struct{}{}
		p.connWG.Add(1)
		p.mu.Unlock()
		go p.handleConn(c)
	}
}

// Close stops the proxy: listener, every client connection (and with
// them the backend upstreams), the idle control connections, and the
// standby tee, which is flushed best-effort first.
func (p *Proxy) Close() error {
	p.stopOnce.Do(func() {
		p.closing.Store(true)
		p.ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.connWG.Wait()
		// Fleet requests run on the connection goroutines just joined, so
		// nothing returns a control connection to the pool after this.
		p.ctl.drop("")
		if p.tee != nil {
			p.tee.close()
		}
	})
	return nil
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// route picks the backend address for a tenant, "" when nothing is
// routable. Placement is stateless: the tenant's rendezvous pick over
// the FULL backend list — hashing over the live subset instead would
// silently re-home a dead backend's tenants past the standby holding
// their teed state. A dead pick fails over to the standby when one is
// configured (warm failover: the standby already holds the teed state)
// and re-picks over the live backends otherwise (cold failover: clients
// rewind and re-feed).
func (p *Proxy) route(tenant string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := p.cfg.Backends[Pick(p.cfg.Backends, tenant)]
	if !p.dead[addr] {
		return addr
	}
	if p.cfg.Standby != "" {
		return p.cfg.Standby
	}
	live := p.liveLocked()
	if i := Pick(live, tenant); i >= 0 {
		return live[i]
	}
	return ""
}

// probeBackend checks whether a backend that just failed an I/O
// operation is actually down — one connect within dialTimeout — and
// marks it dead if so. A transient per-connection failure (peer reset
// one conn) must not re-home every tenant of a healthy backend.
func (p *Proxy) probeBackend(addr string) {
	if addr == "" || addr == p.cfg.Standby || p.closing.Load() {
		return
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err == nil {
		c.Close()
		return
	}
	p.mu.Lock()
	wasDead := p.dead[addr]
	p.dead[addr] = true
	p.mu.Unlock()
	p.ctl.drop(addr) // dead is sticky: nothing will use them again
	if !wasDead {
		p.logf("proxy: backend %s is down (%v); failing its tenants over", addr, err)
	}
}

// upstream is one lazily-dialed backend connection owned by a front
// connection. bw staging is only touched by the front reader goroutine;
// dirty marks staged-but-unflushed frames.
type upstream struct {
	addr  string
	conn  net.Conn
	bw    *bufio.Writer
	dirty bool
}

// frontConn is one client connection and its per-backend upstreams.
type frontConn struct {
	p     *Proxy
	front net.Conn
	br    *bufio.Reader

	wmu sync.Mutex // serializes whole frames onto fw
	fw  *bufio.Writer

	mu     sync.Mutex
	ups    map[string]*upstream
	closed bool

	dirty []*upstream // flushUpstreams scratch, reader goroutine only

	down sync.Once
}

// handleConn runs one client connection: a reader loop peeking each
// request frame for its routing key and relaying it verbatim to the
// owning backend, per-upstream relay goroutines copying responses back,
// and local handling for the fleet-wide all-tenant stats request. Any mid-stream upstream failure tears the whole front
// connection down — the client's reconnect machinery re-opens against
// whatever the routing table now says, which is what makes backend
// death transparent to a resumable client.
func (p *Proxy) handleConn(c net.Conn) {
	defer p.connWG.Done()
	fc := &frontConn{
		p:     p,
		front: c,
		br:    bufio.NewReader(c),
		fw:    bufio.NewWriter(c),
		ups:   make(map[string]*upstream),
	}
	defer fc.teardown("")
	defer func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}()
	enc := snap.NewEncoder()
	var buf []byte
	for {
		var err error
		buf, err = serve.ReadFrame(fc.br, buf)
		if err != nil {
			return // clean EOF or framing error; either way the conn is done
		}
		info, err := serve.PeekRequest(buf)
		if err != nil {
			// Match the backend's contract for unparseable frames: answer
			// with a bad-request error, then close.
			enc.Reset()
			serve.AppendErrorResponse(enc, info, err.Error())
			fc.writeLocal(enc.Bytes())
			return
		}
		switch {
		case info.StatsAll:
			enc.Reset()
			p.appendFleetStats(enc, info)
			if !fc.writeLocal(enc.Bytes()) {
				return
			}
		default:
			addr := p.route(info.Tenant)
			if addr == "" {
				enc.Reset()
				serve.AppendUnavailableResponse(enc, info, "no live backend for tenant "+info.Tenant)
				if !fc.writeLocal(enc.Bytes()) {
					return
				}
				break
			}
			u, err := fc.upstream(addr)
			if err != nil {
				// The owner would not take a connection: probe it (possibly
				// re-routing every tenant it owned) and bounce this request
				// with a retryable error rather than killing the client's
				// connection — its retry will land wherever route says next.
				p.probeBackend(addr)
				enc.Reset()
				serve.AppendUnavailableResponse(enc, info, "backend "+addr+" unavailable")
				if !fc.writeLocal(enc.Bytes()) {
					return
				}
				break
			}
			if info.Mutating && p.tee != nil && addr != p.cfg.Standby {
				p.tee.enqueue(buf)
			}
			if err := serve.WriteFrame(u.bw, buf); err != nil {
				fc.teardown(addr)
				return
			}
			u.dirty = true
		}
		// Flush staged upstream frames once the client pauses: everything
		// buffered so far belongs to complete frames (peers flush their
		// socket before waiting), so batching flushes per client burst is
		// safe and saves a syscall per pipelined frame.
		if fc.br.Buffered() == 0 {
			if !fc.flushUpstreams() {
				return
			}
		}
	}
}

// upstream returns the connection to addr, dialing it on first use and
// spawning its response relay.
func (fc *frontConn) upstream(addr string) (*upstream, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed {
		return nil, net.ErrClosed
	}
	if u, ok := fc.ups[addr]; ok {
		return u, nil
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	u := &upstream{addr: addr, conn: conn, bw: bufio.NewWriter(conn)}
	fc.ups[addr] = u
	go fc.relay(u)
	return u, nil
}

// relay copies response frames from one backend to the client. Each
// frame is written and flushed under wmu so frames from different
// backends interleave whole, never byte-mixed. Any error tears the
// front connection down: the relay cannot know which in-flight requests
// just lost their responses, but the client's reconnect machinery can.
func (fc *frontConn) relay(u *upstream) {
	br := bufio.NewReader(u.conn)
	var buf []byte
	for {
		var err error
		buf, err = serve.ReadFrame(br, buf)
		if err != nil {
			fc.teardown(u.addr)
			return
		}
		if !fc.writeLocal(buf) {
			fc.teardown(u.addr)
			return
		}
	}
}

// writeLocal writes one whole frame to the client, reporting false on
// error. Flushing per frame keeps cross-backend interleavings whole;
// coalescing here would risk holding a partial frame while another
// relay appends.
func (fc *frontConn) writeLocal(body []byte) bool {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if err := serve.WriteFrame(fc.fw, body); err != nil {
		return false
	}
	return fc.fw.Flush() == nil
}

// flushUpstreams pushes every staged upstream frame to its backend,
// reporting false (after teardown) when a backend write fails.
func (fc *frontConn) flushUpstreams() bool {
	fc.mu.Lock()
	dirty := fc.dirty[:0]
	for _, u := range fc.ups {
		if u.dirty {
			u.dirty = false
			dirty = append(dirty, u)
		}
	}
	fc.mu.Unlock()
	fc.dirty = dirty
	for _, u := range dirty {
		if err := u.bw.Flush(); err != nil {
			fc.teardown(u.addr)
			return false
		}
	}
	return true
}

// teardown closes the front connection and every upstream, once.
// failedAddr names the backend whose I/O just failed ("" when the
// client side ended the connection) so its death can be probed and its
// tenants re-routed before the client's reconnect lands.
func (fc *frontConn) teardown(failedAddr string) {
	fc.down.Do(func() {
		if failedAddr != "" {
			fc.p.probeBackend(failedAddr)
		}
		fc.mu.Lock()
		fc.closed = true
		ups := make([]*upstream, 0, len(fc.ups))
		for _, u := range fc.ups {
			ups = append(ups, u)
		}
		fc.mu.Unlock()
		fc.front.Close()
		for _, u := range ups {
			u.conn.Close()
		}
	})
}

// ——— The fleet-wide request handled at the proxy ———

// appendFleetStats answers an all-tenant stats request by fanning out
// to every live backend, one read-out each, merging the rows sorted by
// tenant ID, and recomputing each ServiceShare against the fleet-wide
// served-rounds total (each backend only knows its own). Each read-out
// runs on a pooled control client, which decodes a repeat response
// against the strings of its previous one. The
// checkpoint-log counters are summed over the backends that answered,
// each also listed under its address in the counters' Backends.
// Standby rows are included only for tenants the routing table actually
// sends there (their primary died); otherwise the standby's teed
// replicas would shadow the primaries' live rows.
func (p *Proxy) appendFleetStats(enc *snap.Encoder, info serve.PeekInfo) {
	addrs := p.liveBackends()
	if p.cfg.Standby != "" && len(addrs) < len(p.cfg.Backends) {
		addrs = append(addrs, p.cfg.Standby)
	}
	perBackend := make([][]serve.TenantStats, len(addrs))
	counters := make([]serve.DuraStats, len(addrs))
	errs := p.fanout(addrs, func(i int, c *serve.Client) (err error) {
		perBackend[i], counters[i], err = c.ReadOut("")
		return err
	})
	n := 0
	for _, rs := range perBackend {
		n += len(rs)
	}
	// runs holds each answering backend's rows, which it sends sorted by
	// tenant ID; the standby's are filtered in place, keeping that order.
	runs := perBackend[:0]
	var sum serve.DuraStats
	for i, rs := range perBackend {
		if errs[i] != nil {
			continue
		}
		st := counters[i]
		sum.Appends += st.Appends
		sum.Bytes += st.Bytes
		sum.Fsyncs += st.Fsyncs
		sum.Rotations += st.Rotations
		sum.Compactions += st.Compactions
		sum.Segments += st.Segments
		st.Backends = nil // a backend never reports rows; keep it that way
		sum.Backends = append(sum.Backends, serve.BackendDuraStats{Addr: addrs[i], DuraStats: st})
		if addrs[i] == p.cfg.Standby {
			kept := rs[:0]
			for _, r := range rs {
				if p.route(r.ID) == p.cfg.Standby {
					kept = append(kept, r)
				}
			}
			rs = kept
		}
		runs = append(runs, rs)
	}
	rows := mergeByID(make([]serve.TenantStats, 0, n), runs)
	var total float64
	for i := range rows {
		total += float64(rows[i].ServedRounds)
	}
	for i := range rows {
		rows[i].ServiceShare = 0
		if total > 0 {
			rows[i].ServiceShare = float64(rows[i].ServedRounds) / total
		}
	}
	serve.AppendStatsResponse(enc, info, rows, &sum)
}

// mergeByID appends the rows of runs, each sorted by tenant ID, to dst
// in ID order: a k-way merge over a handful of backends, taking the
// least head each step. It consumes runs.
func mergeByID(dst []serve.TenantStats, runs [][]serve.TenantStats) []serve.TenantStats {
	for {
		least := -1
		for i, r := range runs {
			if len(r) > 0 && (least < 0 || r[0].ID < runs[least][0].ID) {
				least = i
			}
		}
		if least < 0 {
			return dst
		}
		dst = append(dst, runs[least][0])
		runs[least] = runs[least][1:]
	}
}

// liveBackends snapshots the backends not marked dead.
func (p *Proxy) liveBackends() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

// liveLocked lists the backends not marked dead. The caller holds p.mu.
func (p *Proxy) liveLocked() []string {
	live := make([]string, 0, len(p.cfg.Backends))
	for _, b := range p.cfg.Backends {
		if !p.dead[b] {
			live = append(live, b)
		}
	}
	return live
}
