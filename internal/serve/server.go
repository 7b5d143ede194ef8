package serve

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdr"
	"repro/internal/ckptlog"
	"repro/internal/sched"
	"repro/internal/snap"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// CheckpointDir enables durability: every tenant's records — its
	// configuration and stream state, from a first one at open onwards —
	// are appended to the shared group-commit checkpoint log
	// (internal/ckptlog) in this directory, and NewServer recovers every
	// tenant the log holds. "" disables both.
	CheckpointDir string
	// CheckpointEvery is the number of applied rounds after which a
	// periodic per-tenant checkpoint falls due (default 64). A due
	// checkpoint is taken when the pick that applied the rounds emptied
	// the tenant's queue, or when the log has flushed its write buffer
	// since the tenant's previous record; otherwise a later pick takes
	// it. So a backlogged tenant's record trails its stream by at most
	// the larger of CheckpointEvery rounds and the rounds it applies in
	// one CkptCommitInterval, and is current once its queue empties.
	// Open, drain, close and graceful shutdown always write their own
	// records regardless.
	CheckpointEvery int
	// CkptCommitInterval is the checkpoint log's group-commit fsync
	// interval (default 2ms). Appends buffered within one interval share a
	// single fsync; a crash loses at most the last interval's records.
	CkptCommitInterval time.Duration
	// CkptSegmentBytes caps a log segment before rotation (default 4MiB).
	CkptSegmentBytes int
	// RoundInterval, when positive, paces round application: each shard
	// worker applies on average one queued tick per backlogged tenant per
	// interval, so arrivals batch into timed round ticks and a client
	// outrunning the rate is shed at its queue cap. The Go runtime wakes
	// a sleeping worker at about 1 ms granularity, so a late pass serves
	// every interval it missed, up to 4 ms of them. Zero applies ticks
	// eagerly; a negative value is an error.
	RoundInterval time.Duration
	// Shards is the worker-pool size tenants are hashed across
	// (default GOMAXPROCS, capped at 16).
	Shards int
	// MaxTenants bounds the number of live tenants (default 4096);
	// closed tenants leave the table and do not count against it.
	MaxTenants int
	// DefaultQueueCap is the per-tenant pending-queue cap applied when
	// an open request leaves QueueCap 0 (default 64).
	DefaultQueueCap int
	// BDR enables bounded-delay admission control (docs/SCHEDULING.md
	// "Admission"): open requests may carry a (rate, delay) reservation,
	// admitted iff the shard's supply-bound-function feasibility check
	// passes, and shard workers run the fractional-share controller that
	// converts reservations plus measured backlog into per-pass weights
	// and budgets. The capacity model is one dedicated worker per shard:
	// each shard supplies rate 1 at delay bound 1 under a machine root of
	// rate Shards and delay 0, so a tenant's reservation must fit its
	// shard's residual rate and declare a delay above 1. Off (the
	// default), a reservation-carrying open is rejected and scheduling
	// behaves exactly as without this field.
	BDR bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 16)
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	if c.DefaultQueueCap <= 0 {
		c.DefaultQueueCap = 64
	}
}

// shardBDR is each shard's supply under Config.BDR: one worker serving
// one round per tick, at delay bound 1 below a machine root of delay 0.
// A paced worker's pass clock (paceClock) budgets every interval that
// has elapsed, so that rate holds in wall time.
var shardBDR = bdr.BDR{Rate: 1, Delay: 1}

// Server hosts many tenants — each an independent sched.Stream with its
// own policy — behind the wire protocol (see the package comment).
// Round ticks admitted by Submit are applied asynchronously by a
// sharded worker pool; per-tenant checkpoints make every tenant
// recoverable across restarts.
type Server struct {
	cfg Config
	ln  net.Listener

	// tree is the hierarchical BDR reservation tree (machine → shard →
	// tenant) and ctrl the fractional-share controller shard workers
	// consult each pass; both nil unless Config.BDR is set. The tree is
	// guarded by mu (every mutation happens inside tenant-lifecycle
	// critical sections that already hold it).
	tree *bdr.Tree
	ctrl *bdr.Controller

	// clog is the shared group-commit checkpoint log; nil when
	// durability is off.
	clog *ckptlog.Log

	mu      sync.Mutex
	tenants map[string]*tenant
	// sorted caches tenantList's ID-ordered snapshot; it is rebuilt on
	// demand and dropped whenever the tenant set changes. Published
	// slices are never mutated, so callers may hold one across the lock.
	sorted []*tenant
	conns  map[net.Conn]struct{}

	draining atomic.Bool

	shards    []*shard
	stopShard chan struct{}
	shardWG   sync.WaitGroup
	connWG    sync.WaitGroup

	stopOnce sync.Once
	stopErr  error
}

// shard is one worker's set of tenants. wake is a coalesced
// notification: the worker drains it before scanning, so a poke
// arriving mid-scan is never lost.
type shard struct {
	mu      sync.Mutex
	tenants []*tenant
	wake    chan struct{}
}

func (sh *shard) add(t *tenant) {
	sh.mu.Lock()
	sh.tenants = append(sh.tenants, t)
	sh.mu.Unlock()
}

func (sh *shard) remove(t *tenant) {
	sh.mu.Lock()
	if i := slices.Index(sh.tenants, t); i >= 0 {
		sh.tenants = slices.Delete(sh.tenants, i, i+1)
	}
	sh.mu.Unlock()
}

func (sh *shard) snapshot(dst []*tenant) []*tenant {
	sh.mu.Lock()
	dst = append(dst, sh.tenants...)
	sh.mu.Unlock()
	return dst
}

func (sh *shard) poke() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// NewServer prepares a server: it recovers every tenant found in
// CheckpointDir, binds the listener (so Addr is valid before Serve),
// and starts the shard workers. Call Serve to accept connections.
func NewServer(cfg Config) (*Server, error) {
	if cfg.RoundInterval < 0 {
		return nil, fmt.Errorf("serve: negative RoundInterval %v (0 applies rounds eagerly)", cfg.RoundInterval)
	}
	cfg.fill()
	s := &Server{
		cfg:       cfg,
		tenants:   make(map[string]*tenant),
		conns:     make(map[net.Conn]struct{}),
		stopShard: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{wake: make(chan struct{}, 1)})
	}
	if cfg.BDR {
		// One BDR per shard under a machine root that is exactly their sum.
		shardBDRs := make([]bdr.BDR, cfg.Shards)
		for i := range shardBDRs {
			shardBDRs[i] = shardBDR
		}
		tree, err := bdr.NewTree(bdr.BDR{Rate: float64(cfg.Shards)}, shardBDRs)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.tree = tree
		s.ctrl = &bdr.Controller{ShardRate: shardBDR.Rate}
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating checkpoint dir: %w", err)
		}
		// An older build kept each tenant's configuration in <id>.meta.
		// Such a directory is refused, naming the file, not migrated
		// (docs/CHECKPOINT.md "Versioning"), and before the log is opened,
		// so it is left as it was. Glob's only error is a malformed
		// pattern, and this one is constant.
		if metas, _ := fs.Glob(os.DirFS(cfg.CheckpointDir), "*.meta"); len(metas) > 0 {
			return nil, fmt.Errorf("serve: %s is a tenant meta file from an older build; this build keeps tenant configuration in the checkpoint log (record version %d) and does not migrate older directories",
				filepath.Join(cfg.CheckpointDir, metas[0]), recordVersion)
		}
		clog, err := ckptlog.Open(ckptlog.Options{
			Dir:            cfg.CheckpointDir,
			CommitInterval: cfg.CkptCommitInterval,
			SegmentBytes:   int64(cfg.CkptSegmentBytes),
			Logf:           cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening checkpoint log: %w", err)
		}
		s.clog = clog
		if err := s.recover(); err != nil {
			s.clog.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listening on %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	for _, sh := range s.shards {
		s.shardWG.Add(1)
		go s.shardWorker(sh)
	}
	return s, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// NumTenants reports the number of live tenants.
func (s *Server) NumTenants() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Serve accepts connections until the listener closes. It returns nil
// after Shutdown or Close, and the accept error otherwise.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		// Register and reserve the handler under one lock acquisition,
		// re-checking draining inside it. A connection accepted in the
		// race with stop() is either registered before stop's close
		// sweep runs (the sweep holds the same lock, so it sees and
		// closes it, and connWG.Wait covers its handler) or lands after
		// draining is set and is refused here — never an unclosed
		// connection whose handler outlives Shutdown.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown drains gracefully: stop admitting work (in-flight submits
// get ErrDraining), stop the shard workers, flush every tenant's queued
// round ticks, write a final checkpoint per tenant, then close all
// connections. It is the SIGTERM path of cmd/rrserved.
func (s *Server) Shutdown() error { return s.stop(true) }

// Close stops abruptly — no flush, no final checkpoints — leaving only
// the periodic checkpoints on disk. It approximates a crash (the
// fault-injection tests use it); production code wants Shutdown.
func (s *Server) Close() error { return s.stop(false) }

func (s *Server) stop(flush bool) error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		close(s.stopShard)
		s.shardWG.Wait()
		if flush {
			for _, t := range s.tenantList() {
				t.flush()
			}
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		// The log closes only after every connection handler is gone —
		// a handler mid-drain can still append checkpoints. Graceful
		// shutdown commits the tail; Close abandons it unsynced, the
		// crash analogue the fault-injection tests rely on.
		if s.clog != nil {
			if flush {
				if err := s.clog.Close(); err != nil {
					s.logf("serve: closing checkpoint log: %v", err)
					if s.stopErr == nil {
						s.stopErr = err
					}
				}
			} else {
				s.clog.Abort()
			}
		}
	})
	return s.stopErr
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// liveTenant looks up the tenant a command addresses, answering a miss
// with the unknown-tenant error.
func (s *Server) liveTenant(id string) (*tenant, *errResp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[id]; t != nil {
		return t, nil
	}
	return nil, &errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + id}
}

// tenantList returns the tenants sorted by ID. The snapshot is cached
// until the tenant set changes — the stats command calls this on every
// request, and re-sorting a big fleet per poll is measurable — and is
// immutable once returned: neither the server nor callers may modify it.
func (s *Server) tenantList() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil {
		ts := make([]*tenant, 0, len(s.tenants))
		for _, t := range s.tenants {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
		s.sorted = ts
	}
	return s.sorted
}

// shardIndex is the tenant-to-shard hash, computed once at install and
// kept on the tenant. The BDR reservation tree is indexed by the same
// value, so a tenant's reservation always lives on the shard whose
// worker serves it.
func (s *Server) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// shardWorker applies admitted round ticks for the shard's tenants: a
// full allocation pass (servePass) on every poke in eager mode, or, in
// paced mode, a budgeted pass on each ticker tick for the intervals the
// pass clock owes — one round of budget per backlogged tenant per
// interval. When nothing else is runnable the Go runtime sleeps in
// whole milliseconds, so ticks at a shorter interval arrive late and
// merge; the pass clock makes up the intervals they missed. Which
// backlogged tenant each round goes to is the cross-tenant allocator's
// decision (alloc.go), not arrival order.
func (s *Server) shardWorker(sh *shard) {
	defer s.shardWG.Done()
	var ps passState
	if s.cfg.RoundInterval == 0 {
		for {
			select {
			case <-s.stopShard:
				return
			case <-sh.wake:
			}
			s.servePass(sh, &ps, 0)
		}
	}
	// The origin is read before the ticker starts, so no tick reads as
	// early: every tick lands at or after its interval's end.
	pc := newPaceClock(s.cfg.RoundInterval, time.Now())
	tk := time.NewTicker(s.cfg.RoundInterval)
	defer tk.Stop()
	for {
		select {
		case <-s.stopShard:
			return
		case <-tk.C:
		}
		if n := pc.owed(time.Now()); n > 0 {
			s.servePass(sh, &ps, n)
		}
	}
}

// maxPaceLag caps the wall time one paced pass may make up. It covers
// the runtime's 1 ms sleeps with margin (20 intervals at 200 µs), while
// a stalled worker never bursts more than 4 ms of service. An interval
// longer than the cap still grants its one interval.
const maxPaceLag = 4 * time.Millisecond

// paceClock is a paced shard worker's pass clock: it turns each wake
// into the whole intervals owed since the last pass.
type paceClock struct {
	interval time.Duration
	maxOwed  int64     // maxPaceLag in intervals, at least 1
	origin   time.Time // start of the first interval not yet granted
}

func newPaceClock(interval time.Duration, now time.Time) paceClock {
	return paceClock{interval: interval, maxOwed: max(int64(maxPaceLag/interval), 1), origin: now}
}

// owed returns the whole intervals elapsed since the origin, capped at
// maxOwed, and advances the origin past all of them: the origin keeps
// its phase, and what a stall owed beyond the cap is dropped, never
// owed later.
func (c *paceClock) owed(now time.Time) int {
	n := int64(now.Sub(c.origin) / c.interval)
	if n <= 0 {
		return 0
	}
	c.origin = c.origin.Add(time.Duration(n) * c.interval)
	return int(min(n, c.maxOwed))
}

// ——— Tenant lifecycle ———

// validTenantID restricts IDs to short tokens of [A-Za-z0-9_-], which
// log lines, stats rows and checkpoint-log records carry verbatim.
func validTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// maxTenantWeight bounds the per-tenant service weight an open request
// may declare, keeping deficit arithmetic well-conditioned.
const maxTenantWeight = 1 << 20

// minDelayOf returns the tightest positive delay bound in a tenant's
// menu (≥ 1): the denominator of its delay factor.
func minDelayOf(delays []int) int {
	md := 0
	for _, d := range delays {
		if d > 0 && (md == 0 || d < md) {
			md = d
		}
	}
	return max(md, 1)
}

// normalize applies the server's defaults to a tenant configuration so
// that two descriptions of one tenant compare equal: QueueCap ≤ 0
// selects DefaultQueueCap, Speed 0 and Weight 0 select 1. Values out of
// range stay as they are for install to reject.
func (s *Server) normalize(tc TenantConfig) TenantConfig {
	if tc.QueueCap <= 0 {
		tc.QueueCap = s.cfg.DefaultQueueCap
	}
	if tc.Speed == 0 {
		tc.Speed = 1
	}
	if tc.Weight == 0 {
		tc.Weight = 1
	}
	return tc
}

// equal reports whether two normalized configurations describe the same
// tenant, so a client can re-attach idempotently.
func (tc *TenantConfig) equal(o *TenantConfig) bool {
	return tc.Policy == o.Policy && tc.N == o.N && tc.Speed == o.Speed &&
		tc.Delta == o.Delta && slices.Equal(tc.Delays, o.Delays) &&
		tc.QueueCap == o.QueueCap && tc.Weight == o.Weight &&
		tc.ResRate == o.ResRate && tc.ResDelay == o.ResDelay
}

// checkVersion rejects an open spoken at any protocol version but this
// server's.
func checkVersion(v int) *errResp {
	if v == ProtocolVersion {
		return nil
	}
	return &errResp{Code: codeBadVersion,
		Msg: fmt.Sprintf("protocol version %d, server speaks %d", v, ProtocolVersion)}
}

// open creates a tenant, or re-attaches to a live one with an equal
// configuration.
func (s *Server) open(m *openMsg) (*openResp, *errResp) {
	if er := checkVersion(m.Version); er != nil {
		return nil, er
	}
	cfg := s.normalize(m.Config)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[m.Tenant]; t != nil {
		if !t.cfg.equal(&cfg) {
			return nil, &errResp{Code: codeTenantExists,
				Msg: "tenant " + m.Tenant + " exists with a different configuration"}
		}
		return &openResp{NextSeq: t.nextSeq(), Resumed: true}, nil
	}
	if _, er := s.installLocked(m.Tenant, cfg, nil); er != nil {
		return nil, er
	}
	return &openResp{}, nil
}

// installLocked is the one path by which a tenant comes into existence.
// It validates the ID, weight and reservation of the normalized cfg,
// builds the stream, admits the reservation into the BDR tree, makes the
// tenant durable and registers it under id, which the table must not
// hold (callers check). Open passes no blob and gets a fresh stream: the
// draining and tenant-limit gates apply, and the tenant's first full
// record is appended and synced before the open is acknowledged, so its
// configuration survives a crash before the first periodic checkpoint
// and the record shadows any tombstone an earlier close of id left.
// Recovery passes the snapshot blob of the tenant's latest record in
// this server's own checkpoint log, cross-checked against cfg: those
// records already exist, so nothing is written, and the gates for new
// tenants do not apply. A failure leaves no reservation and no table
// entry behind. Callers hold s.mu.
func (s *Server) installLocked(id string, cfg TenantConfig, blob []byte) (*tenant, *errResp) {
	if !validTenantID(id) {
		return nil, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("invalid tenant ID %q (want 1-64 chars of [A-Za-z0-9_-])", id)}
	}
	if cfg.Weight < 1 || cfg.Weight > maxTenantWeight {
		return nil, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("invalid tenant weight %d (want 0-%d; 0 selects 1)", cfg.Weight, maxTenantWeight)}
	}
	res, er := s.checkReservation(cfg.ResRate, cfg.ResDelay)
	if er != nil {
		return nil, er
	}
	recovered := blob != nil
	if !recovered && s.draining.Load() {
		return nil, &errResp{Code: codeDraining, Msg: "server is draining"}
	}
	if !recovered && len(s.tenants) >= s.cfg.MaxTenants {
		return nil, &errResp{Code: codeOverloaded,
			Msg: fmt.Sprintf("tenant limit %d reached", s.cfg.MaxTenants)}
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, &errResp{Code: codeBadPolicy, Msg: err.Error()}
	}
	t := &tenant{
		id: id, cfg: cfg, polName: pol.Name(), shard: s.shardIndex(id),
		minDelay: minDelayOf(cfg.Delays), draining: &s.draining,
	}
	if !recovered {
		t.st, err = sched.NewStream(pol, sched.StreamConfig{
			N: cfg.N, Speed: cfg.Speed, Delta: cfg.Delta, Delays: cfg.Delays})
		if err != nil {
			return nil, &errResp{Code: codeBadRequest, Msg: err.Error()}
		}
	} else {
		// The blob embeds the configuration it was snapshotted under; a
		// mismatch with the one the record declares proves the record is
		// corrupt — reject before any state is created.
		pcfg, polName, perr := sched.PeekSnapshot(blob)
		switch {
		case perr != nil:
			return nil, &errResp{Code: codeBadRequest, Msg: fmt.Sprintf("snapshot blob: %v", perr)}
		case pcfg.N != cfg.N || pcfg.Speed != cfg.Speed || pcfg.Delta != cfg.Delta || !slices.Equal(pcfg.Delays, cfg.Delays):
			return nil, &errResp{Code: codeBadRequest,
				Msg: "snapshot blob configuration does not match the declared configuration"}
		case polName != pol.Name():
			return nil, &errResp{Code: codeBadRequest,
				Msg: fmt.Sprintf("snapshot blob policy %q does not match declared policy %q", polName, pol.Name())}
		}
		if t.st, err = sched.RestoreStream(pol, blob, nil); err != nil {
			return nil, &errResp{Code: codeBadRequest, Msg: fmt.Sprintf("snapshot blob: %v", err)}
		}
	}
	if !res.IsZero() {
		// The supply-bound-function feasibility check, atomic with
		// registration (s.mu is held): an infeasible reservation is
		// rejected before any state exists — nothing queued, nothing shed.
		if err := s.tree.Admit(t.shard, id, res); err != nil {
			return nil, admissionErrResp(err)
		}
	}
	if s.clog != nil {
		t.clog, t.logf = s.clog, s.logf
		e := snap.NewEncoder()
		e.Int(recordVersion)
		cfg.encode(e)
		t.prefix = e.Bytes()
		// A recovered tenant's record is on disk already: -1, a count
		// Flushes never returns, lets its first due checkpoint go ahead.
		t.lastCkpt, t.ckptFlushes = t.st.Round(), -1
		if !recovered {
			// t is not shared yet, so its lock need not be held.
			err = t.logCheckpointLocked(t.lastCkpt)
			if err == nil {
				err = s.clog.Sync()
			}
			if err != nil {
				if !res.IsZero() {
					s.tree.Release(t.shard, id)
				}
				return nil, &errResp{Code: codeInternal,
					Msg: fmt.Sprintf("serve: tenant %s: logging its first record: %v", id, err)}
			}
		}
	}
	s.tenants[id] = t
	s.sorted = nil
	s.shards[t.shard].add(t)
	return t, nil
}

// checkReservation validates a tenant's BDR reservation against the
// server configuration: a reservation on a non-BDR server is a bad
// request (the client asked for a guarantee this server cannot
// enforce), and a malformed one is rejected before the admission check.
func (s *Server) checkReservation(rate, delay float64) (bdr.BDR, *errResp) {
	if rate == 0 && delay == 0 {
		return bdr.BDR{}, nil
	}
	if !s.cfg.BDR {
		return bdr.BDR{}, &errResp{Code: codeBadRequest,
			Msg: "tenant reservation requires a BDR-enabled server (rrserved -bdr)"}
	}
	res := bdr.BDR{Rate: rate, Delay: delay}
	if !res.Valid() || res.Rate > 1 {
		return bdr.BDR{}, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("invalid reservation (rate %g, delay %g): want 0 < rate ≤ 1 and delay ≥ 0", rate, delay)}
	}
	return res, nil
}

// admissionErrResp converts a reservation-tree rejection into the
// typed wire error, copying the residual capacity when the failure is
// an infeasibility (as opposed to an internal double-admit).
func admissionErrResp(err error) *errResp {
	er := &errResp{Code: codeAdmission, Msg: err.Error()}
	var inf *bdr.InfeasibleError
	if errors.As(err, &inf) {
		// The client-side AdmissionError re-appends the residuals to its
		// message, so carry only the reason here to avoid stating them
		// twice.
		er.Msg = fmt.Sprintf("bdr: infeasible reservation on shard %d: %s", inf.Shard, inf.Reason)
		er.ResidualRate = inf.ResidualRate
		er.ResidualDelay = inf.MinDelay
	}
	return er
}

// closeTenant drains a tenant fully, tombstones it in the checkpoint
// log and removes it, returning the final Result. The drain, the synced
// tombstone and the close happen in one tenant-lock critical section
// (drainAndClose), so a concurrent Submit can never be admitted — and
// acknowledged — after the final Result was computed and then silently
// dropped with the tenant, and no checkpoint can land behind the
// tombstone. A failure leaves the tenant live.
func (s *Server) closeTenant(id string) (*sched.Result, *errResp) {
	t, er := s.liveTenant(id)
	if er != nil {
		return nil, er
	}
	res, er := t.drainAndClose()
	if er != nil {
		return nil, er
	}
	s.remove(t)
	return res, nil
}

// remove unregisters a closed tenant: the table entry, the BDR
// reservation — whose residual opens up for new tenants at once — and
// the shard registration.
func (s *Server) remove(t *tenant) {
	s.mu.Lock()
	delete(s.tenants, t.id)
	s.sorted = nil
	if s.tree != nil {
		s.tree.Release(t.shard, t.id)
	}
	s.mu.Unlock()
	s.shards[t.shard].remove(t)
}

// ——— Recovery ———

// recordVersion is the layout of every record a tenant appends to the
// checkpoint log: this version, the TenantConfig codec, then the Stream
// snapshot. The server appends full records only; a delta record an
// older build appended encodes that whole byte string, and the log
// resolves it (ckptlog.Log.Latest). Version 4 follows the retired meta
// files' version 3; a record of any other version is refused, not
// migrated.
const recordVersion = 4

// recover rebuilds every tenant the checkpoint log holds a live record
// for, from its latest one: the configuration in the record's prefix,
// the stream from the snapshot behind it, cross-checked by install and
// against the round the log recorded. A corrupt record, an older
// build's record, or a reservation that no longer fits (the server
// restarted with less BDR capacity, or without -bdr) fails recovery
// loudly: silently dropping a tenant or hosting it unreserved would lose
// its stream or its guarantee.
func (s *Server) recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.clog.Tenants() {
		rec, round, _, err := s.clog.Latest(id)
		if err != nil {
			return fmt.Errorf("serve: tenant %s: checkpoint log: %w", id, err)
		}
		d := snap.NewDecoder(rec)
		if v := d.Int(); d.Err() == nil && v != recordVersion {
			return fmt.Errorf("serve: tenant %s: checkpoint log holds record version %d, this build reads only version %d", id, v, recordVersion)
		}
		var cfg TenantConfig
		cfg.decode(d)
		if err := d.Err(); err != nil {
			return fmt.Errorf("serve: tenant %s: checkpoint record: %w", id, err)
		}
		t, er := s.installLocked(id, cfg, rec[len(rec)-d.Remaining():])
		if er != nil {
			return fmt.Errorf("serve: recovering tenant %s: %s", id, er.Msg)
		}
		if round != t.st.Round() {
			return fmt.Errorf("serve: tenant %s: checkpoint log records round %d but the blob restores at round %d", id, round, t.st.Round())
		}
		s.logf("serve: recovered tenant %s at round %d", id, t.st.Round())
	}
	return nil
}

// ——— Request processing ———

// connState is the per-connection scratch reused across frames so a
// steady-state submit loop or stats poll does not allocate per request.
type connState struct {
	batch  batchMsg
	tenant tenantMsg // a stats, drain or close request
	// shares holds the ServiceShare placeholders of the stats response
	// being encoded (encodeStats).
	shares []sharePatch
}

// sharePatch is one stats row's ServiceShare placeholder: the offset of
// its 8 bytes in the response and the row's served rounds.
type sharePatch struct {
	at     int
	served int64
}

// handleConn runs one connection on this goroutine: read a frame,
// process it, stage the response in bw. Requests on one connection are
// applied in the order they were sent, which is what lets a pipelined
// submit window carry strictly increasing sequence numbers. bw is
// flushed only once br holds no more input, so a pipelining client's K
// responses coalesce into one Flush (and often one syscall) instead of
// K. Holding responses while br has input cannot stall a peer, because
// every peer flushes each frame it has begun before it waits for a
// response (docs/SERVER.md "Connections"), so the rest of a frame br
// holds part of is already on its way. A peer that stops reading blocks
// only this connection, through TCP, until it reads again or stop
// closes the connection.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	defer func() {
		// Flush what is staged (a poisoned request's error response must
		// still reach the peer), but bound how long a wedged peer can hold
		// the handler, then tear down.
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		bw.Flush()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	enc := snap.NewEncoder()
	var cs connState
	var buf []byte
	for {
		var err error
		buf, err = readFrame(br, buf)
		if err != nil {
			return // clean EOF or framing error; either way the conn is done
		}
		enc.Reset()
		closeAfter := s.process(buf, &cs, enc)
		if writeFrame(bw, enc.Bytes()) != nil || closeAfter {
			return
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}

// process handles one request frame, encoding the response into enc. It
// reports whether the connection must close (a protocol violation, as
// opposed to a well-formed request the server rejects). The request's
// tag is echoed here, ahead of the response, so every handler below is
// tag-agnostic. It never panics, whatever the bytes — pinned by
// FuzzFrameDecode.
func (s *Server) process(body []byte, cs *connState, enc *snap.Encoder) (closeConn bool) {
	d := snap.NewDecoder(body)
	tag := d.Uint64() // 0 when truncated: the error below still carries one
	bad := func(msg string) bool {
		enc.Reset()
		enc.Uint64(tag)
		(&errResp{Code: codeBadRequest, Msg: msg}).encode(enc)
		return true
	}
	if d.Err() != nil {
		return bad("truncated request tag")
	}
	enc.Uint64(tag)
	typ := d.Uint64()
	if d.Err() != nil {
		return bad("truncated message type")
	}
	switch typ {
	case msgOpen:
		var m openMsg
		m.decode(d)
		if d.Done() != nil {
			return bad("malformed open")
		}
		resp, er := s.open(&m)
		if er != nil {
			er.encode(enc)
		} else {
			resp.encode(enc)
		}
	case msgSubmitBatch:
		cs.batch.decode(d)
		if d.Done() != nil {
			// Atomic rejection: the batch was not admitted round by round
			// as it decoded, so a malformed tail cannot leave a partial
			// sequence advance behind.
			return bad("malformed submit batch")
		}
		t, er := s.liveTenant(cs.batch.Tenant)
		if er != nil {
			er.encode(enc)
			return false
		}
		admitted, round, depth, er := t.submitBatch(cs.batch.Seq, cs.batch.Ticks)
		if admitted > 0 {
			s.shards[t.shard].poke()
		}
		(&batchResp{Admitted: admitted, Round: round, QueueDepth: depth, Err: er}).encode(enc)
	case msgTenantStats:
		cs.tenant.decode(d)
		if d.Done() != nil {
			return bad("malformed stats request")
		}
		if er := s.encodeStats(enc, cs, cs.tenant.Tenant); er != nil {
			er.encode(enc)
		}
	case msgDrain, msgCloseTenant:
		cs.tenant.decode(d)
		if d.Done() != nil {
			return bad("malformed tenant command")
		}
		finish := s.drain
		if typ == msgCloseTenant {
			finish = s.closeTenant
		}
		res, er := finish(cs.tenant.Tenant)
		if er != nil {
			er.encode(enc)
		} else {
			encodeResult(enc, typ, res)
		}
	default:
		return bad(fmt.Sprintf("unknown message type %d", typ))
	}
	return false
}

// encodeStats encodes the stats response for one tenant (id non-empty)
// or all straight into enc, behind the tag process wrote. Each row is
// copied under its tenant's lock and encoded after the unlock, so a
// shard worker never waits on the encoding. A row's ServiceShare is its
// fraction of every round tick the server's live tenants have applied,
// so a single-tenant row reads the share it has among all rows; an
// all-tenant read-out knows that total only after its last row, so each
// share goes out as a zero placeholder and is patched in place once the
// total is known. The placeholders live in cs, so a steady read-out
// allocates nothing. An unknown id is answered before anything is
// encoded.
func (s *Server) encodeStats(enc *snap.Encoder, cs *connState, id string) *errResp {
	ts := s.tenantList()
	if id != "" {
		t, er := s.liveTenant(id)
		if er != nil {
			return er
		}
		one := [1]*tenant{t}
		ts = one[:]
	}
	enc.Uint64(msgTenantStats)
	enc.Int(len(ts))
	cs.shares = cs.shares[:0]
	var total float64
	for _, t := range ts {
		row := t.stats()
		cs.shares = append(cs.shares, sharePatch{at: row.encode(enc), served: row.ServedRounds})
		total += float64(row.ServedRounds)
	}
	if id != "" {
		total = 0
		for _, t := range s.tenantList() {
			total += float64(t.servedRounds())
		}
	}
	if total > 0 {
		for _, p := range cs.shares {
			enc.PutFloat64(p.at, float64(p.served)/total)
		}
	}
	st := s.DuraStats()
	st.encode(enc)
	return nil
}

// DuraStats reports the checkpoint log's cumulative counters, the block
// every stats response carries, or zeros when durability is disabled.
func (s *Server) DuraStats() DuraStats {
	if s.clog == nil {
		return DuraStats{}
	}
	ls := s.clog.Stats()
	return DuraStats{
		Appends:     ls.Appends,
		Bytes:       ls.Bytes,
		Fsyncs:      ls.Fsyncs,
		Rotations:   ls.Rotations,
		Compactions: ls.Compactions,
		Segments:    int64(ls.Segments),
	}
}

// drain runs tenant id dry (tenant.drainStream) and returns its final
// Result.
func (s *Server) drain(id string) (*sched.Result, *errResp) {
	t, er := s.liveTenant(id)
	if er != nil {
		return nil, er
	}
	res, er := t.drainStream()
	if er == nil && s.clog != nil {
		// The drain's final checkpoint was appended inside drainStream;
		// sync it so a drain acknowledgement means the drained state is
		// durable. A failed sync fails the drain: acknowledging it would
		// promise durability the log could not give.
		if err := s.clog.Sync(); err != nil {
			er = &errResp{Code: codeInternal, Msg: fmt.Sprintf("serve: tenant %s: syncing drain checkpoint: %v", id, err)}
		}
	}
	if er != nil {
		return nil, er
	}
	return res, nil
}
