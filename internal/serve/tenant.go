package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bdr"
	"repro/internal/ckptlog"
	"repro/internal/sched"
)

// tenant is one hosted stream: the live sched.Stream, its bounded
// ingest queue of admitted-but-unapplied round ticks, and the
// admission-control counters. All mutable state is guarded by mu, and
// every checkpoint-log record the tenant writes, its tombstone included,
// is appended under it.
type tenant struct {
	id string
	// cfg is the tenant's normalized configuration (Server.normalize),
	// immutable after install: re-opens compare against it, and every
	// checkpoint-log record carries it.
	cfg     TenantConfig
	polName string // the policy's display Name, for stats
	shard   int    // index of the shard that serves it (Server.shardIndex)
	// minDelay is the tightest delay bound in the tenant's menu; the
	// tenant's delay factor is queued/minDelay (see TenantLoad).
	minDelay int

	// deficit is the weighted service this tenant is owed, the state of
	// the cross-tenant allocator (alloc.go). It is owned by the tenant's
	// single shard worker — only servePass reads or writes it — so it
	// needs no lock.
	deficit float64
	// passApplied counts the rounds applied for this tenant within the
	// current BDR allocation pass (Config.BDR), and passQueued is its
	// backlog when the pass began, which caps the pass's accrual. Like
	// deficit they are owned by the shard worker: servePass sets them at
	// pass start and folds them into the BDR budget accounting at pass
	// end.
	passApplied int
	passQueued  int

	// draining is the server's draining flag. Admission reads it under mu,
	// so once Shutdown has flushed a tenant no later submit can be
	// admitted — and acknowledged — behind the final checkpoint.
	draining *atomic.Bool

	mu    sync.Mutex
	st    *sched.Stream
	queue []sched.Request // admitted round ticks; live entries are queue[head:]
	head  int
	// closed marks a tenant tombstoned by close-tenant, which then drops
	// it from the server's table; a command that looked the tenant up
	// before that still reads it here.
	closed bool
	failed error // a poisoned stream rejects all further commands

	served         int64   // rounds applied by workers/drains, for service shares
	maxPending     int     // high-water of the stream's end-of-round backlog
	maxDelayFactor float64 // high-water of queued/minDelay, sampled at admission
	// BDR budget accounting (Config.BDR): bdrAccrued integrates the
	// service the reservation guaranteed over the passes the tenant was
	// backlogged in (its guaranteed fraction × the pass's applied
	// rounds, at most its backlog at pass start), bdrServed the rounds
	// it actually received in those passes. Their ratio is the stats
	// row's BudgetUtilization.
	bdrAccrued  float64
	bdrServed   int64
	overloads   int64
	badSeqs     int64
	checkpoints int64
	lastCkpt    int  // round of the last snapshot taken
	logFailed   bool // the checkpoint log takes no more writes
	// ckptFlushes is the log's flush count (ckptlog.Log.Flushes) read
	// just before the latest record was appended: once the count moves,
	// that record has left the log's write buffer.
	ckptFlushes int64

	// clog, when non-nil (durability on), is the group-commit checkpoint
	// log (internal/ckptlog): records are appended to the shared segment
	// log under mu, and the log's committer batches the fsyncs. logf
	// receives checkpoint-path diagnostics.
	clog *ckptlog.Log
	logf func(format string, args ...any)

	// prefix is every record's head — recordVersion, then the cfg codec —
	// encoded once at install. snapBuf, guarded by mu, holds the latest
	// record, prefix and snapshot, and is reused every checkpoint, so a
	// steady-state checkpoint allocates nothing.
	prefix  []byte
	snapBuf []byte
}

// res is the tenant's admitted BDR reservation (zero = best-effort). The
// matching reservation-tree entry is released with the tenant by the
// server lifecycle paths.
func (t *tenant) res() bdr.BDR { return bdr.BDR{Rate: t.cfg.ResRate, Delay: t.cfg.ResDelay} }

// queuedLocked reports the number of admitted-but-unapplied round ticks.
// Callers hold mu.
func (t *tenant) queuedLocked() int { return len(t.queue) - t.head }

// nextSeqLocked is the sequence number the next Submit must carry:
// rounds applied plus rounds queued. Callers hold mu.
func (t *tenant) nextSeqLocked() int { return t.st.Round() + t.queuedLocked() }

// nextSeq is nextSeqLocked for callers not holding mu.
func (t *tenant) nextSeq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextSeqLocked()
}

// goneLocked is the typed error for a command that reached the tenant
// after close — it looked the tenant up before the table dropped it —
// and nil while the tenant is live. Callers hold mu.
func (t *tenant) goneLocked() *errResp {
	if t.closed {
		return &errResp{Code: codeUnknownTenant, Msg: "tenant " + t.id + " is closed"}
	}
	return nil
}

// submitLocked is one round's admission check and enqueue. Callers hold
// mu.
func (t *tenant) submitLocked(seq int, arrivals sched.Request) *errResp {
	if er := t.goneLocked(); er != nil {
		return er
	}
	if t.failed != nil {
		return &errResp{Code: codeInternal, Msg: t.failed.Error()}
	}
	if t.draining.Load() {
		return &errResp{Code: codeDraining, Msg: "server is draining"}
	}
	if err := sched.ValidateRequest(arrivals, t.st.NumColors()); err != nil {
		return &errResp{Code: codeInvalidArrival, Msg: err.Error()}
	}
	if expect := t.nextSeqLocked(); seq != expect {
		t.badSeqs++
		return &errResp{Code: codeBadSeq, Expected: expect, Msg: fmt.Sprintf("bad round sequence %d, expected %d", seq, expect)}
	}
	if t.queuedLocked() >= t.cfg.QueueCap {
		t.overloads++
		return &errResp{Code: codeOverloaded, Msg: "tenant queue full"}
	}
	// The decoder reuses the arrivals' backing array across frames, so
	// the queue keeps its own copy. Compact the ring before it can grow
	// past twice the cap: live entries are bounded by cap, so memory
	// stays bounded no matter how long the tenant lives.
	if t.head > 0 && len(t.queue) >= 2*t.cfg.QueueCap {
		n := copy(t.queue, t.queue[t.head:])
		for i := n; i < len(t.queue); i++ {
			t.queue[i] = nil
		}
		t.queue = t.queue[:n]
		t.head = 0
	}
	var tick sched.Request
	if len(arrivals) > 0 {
		tick = append(make(sched.Request, 0, len(arrivals)), arrivals...)
	}
	t.queue = append(t.queue, tick)
	t.sampleDelayFactorLocked()
	return nil
}

// delayFactorLocked is the tenant's live delay factor: backlog over the
// tightest delay bound in its menu. Callers hold mu.
func (t *tenant) delayFactorLocked() float64 {
	return float64(t.queuedLocked()) / float64(max(t.minDelay, 1))
}

// sampleDelayFactorLocked folds the live delay factor into its
// high-water mark. It runs at admission, on every allocator load probe,
// and on stats reads — not only at admission — so a tenant whose queue
// sits deep while its worker is parked (starvation) records the peak
// even when no new submit arrives. Callers hold mu.
func (t *tenant) sampleDelayFactorLocked() {
	if f := t.delayFactorLocked(); f > t.maxDelayFactor {
		t.maxDelayFactor = f
	}
}

// load snapshots the tenant's scheduling signal for the cross-tenant
// allocator, reporting ok false when the tenant has no backlog.
func (t *tenant) load() (TenantLoad, bool) {
	t.mu.Lock()
	q := t.queuedLocked()
	t.sampleDelayFactorLocked()
	t.mu.Unlock()
	if q == 0 {
		return TenantLoad{}, false
	}
	return TenantLoad{
		Queued:   q,
		MinDelay: max(t.minDelay, 1),
		Weight:   t.cfg.Weight,
		Deficit:  t.deficit,
	}, true
}

// servedRounds reports the round ticks applied so far, for server-wide
// service-share totals.
func (t *tenant) servedRounds() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.served
}

// accrueBDR folds one allocation pass into the tenant's BDR budget
// accounting: accrued is the service its reservation guaranteed across
// the pass (guaranteed fraction × rounds the pass applied shard-wide,
// capped at the tenant's backlog), served the rounds the tenant itself
// received.
func (t *tenant) accrueBDR(accrued float64, served int) {
	t.mu.Lock()
	t.bdrAccrued += accrued
	t.bdrServed += int64(served)
	t.mu.Unlock()
}

// submitBatch admits ticks[i] as the round tick at sequence seq+i,
// stopping at the first rejection, under one lock acquisition. The
// admitted count is always a prefix length: the sequence check runs for
// every round, so exactly-once ingest is preserved inside a batch. The
// returned errResp (nil when the whole batch was admitted) describes
// the rejection of round seq+admitted.
func (t *tenant) submitBatch(seq int, ticks []sched.Request) (admitted, round, depth int, er *errResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, tick := range ticks {
		if er = t.submitLocked(seq+i, tick); er != nil {
			break
		}
		admitted++
	}
	return admitted, t.st.Round(), t.queuedLocked(), er
}

// applyQueuedLocked applies up to max queued round ticks (max <= 0 =
// all) and returns how many it applied. Callers hold mu.
func (t *tenant) applyQueuedLocked(max int) (applied int) {
	for t.queuedLocked() > 0 && t.failed == nil && (max <= 0 || applied < max) {
		tick := t.queue[t.head]
		t.queue[t.head] = nil
		t.head++
		if t.head == len(t.queue) {
			t.queue = t.queue[:0]
			t.head = 0
		}
		if err := t.st.Advance(tick); err != nil {
			// Arrivals were validated at admission, so a step failure is
			// an engine-level fault; poison the tenant rather than guess.
			t.failed = fmt.Errorf("serve: tenant %s: applying round %d: %w", t.id, t.st.Round(), err)
			break
		}
		// Drain rounds add no arrivals, so sampling after every applied
		// tick already sees the deepest end-of-round backlog.
		if p := t.st.TotalPending(); p > t.maxPending {
			t.maxPending = p
		}
		applied++
	}
	t.served += int64(applied)
	return applied
}

// applyQueued applies up to max queued round ticks and takes a periodic
// checkpoint when one is due.
func (t *tenant) applyQueued(max, every int) (applied int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	applied = t.applyQueuedLocked(max)
	t.maybeCheckpointLocked(every, false)
	return applied
}

// maybeCheckpointLocked appends a checkpoint to the group-commit log
// when one is due and can change what a crash keeps, or, with force,
// whenever durability is on and the stream has moved since the last
// checkpoint. A checkpoint falls due `every` rounds after the last one
// (the CheckpointEvery cadence), and is taken once the tenant's queue
// is empty or the log has flushed its write buffer since the tenant's
// previous append. Until then that record is still buffered, so a new
// one would only replace it before any write; the due checkpoint waits
// for a later pick. An append is a buffered copy — durability is the
// committer's batched fsync — and taking it under mu makes creation
// order and append order coincide, so a tenant's latest record is its
// latest snapshot without any cross-goroutine ordering protocol, and no
// append of a closed tenant lands behind its tombstone. Callers hold mu.
func (t *tenant) maybeCheckpointLocked(every int, force bool) {
	if t.clog == nil || t.closed || t.failed != nil || t.logFailed {
		return
	}
	r := t.st.Round()
	if r == t.lastCkpt {
		return
	}
	if !force && (every <= 0 || r-t.lastCkpt < every ||
		t.queuedLocked() > 0 && t.clog.Flushes() == t.ckptFlushes) {
		return
	}
	// A snapshot failure has poisoned the tenant already; an append
	// failure is reported here. A failed or closed log stays so: stop
	// checkpointing, which also reports the failure once rather than
	// every round.
	if err := t.logCheckpointLocked(r); err != nil && t.failed == nil {
		t.logf("serve: tenant %s: checkpoint log append at round %d: %v", t.id, r, err)
		t.logFailed = errors.Is(err, ckptlog.ErrFailed)
	}
}

// logCheckpointLocked appends one full record at round r to the
// group-commit log: the prefix and a fresh snapshot. Every checkpoint is
// a full record, so recovery reads one record per tenant; the buffer is
// pooled, so the steady state allocates nothing. Callers hold mu.
func (t *tenant) logCheckpointLocked(r int) error {
	rec, err := t.st.AppendSnapshot(append(t.snapBuf[:0], t.prefix...))
	if err != nil {
		t.failed = fmt.Errorf("serve: tenant %s: snapshot at round %d: %w", t.id, r, err)
		return t.failed
	}
	t.snapBuf = rec
	flushes := t.clog.Flushes()
	if err := t.clog.Append(t.id, ckptlog.KindFull, r, 0, rec); err != nil {
		return err
	}
	t.lastCkpt, t.ckptFlushes = r, flushes
	t.checkpoints++
	return nil
}

// flush applies every queued round tick and takes a final checkpoint —
// the graceful-drain path (server shutdown).
func (t *tenant) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyQueuedLocked(0)
	t.maybeCheckpointLocked(0, true)
}

// drainStream applies the whole queue, then runs empty rounds until no
// job is pending, all under one lock acquisition so no submit can
// interleave, checkpoints the result, and returns the final Result.
// Draining an already-drained tenant is a no-op that returns the same
// Result, so a client retrying a drain whose acknowledgement was lost
// observes identical results.
func (t *tenant) drainStream() (*sched.Result, *errResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drainStreamLocked()
}

func (t *tenant) drainStreamLocked() (*sched.Result, *errResp) {
	if er := t.goneLocked(); er != nil {
		return nil, er
	}
	if t.failed == nil {
		t.applyQueuedLocked(0)
	}
	if t.failed == nil {
		if _, err := t.st.Drain(); err != nil {
			t.failed = fmt.Errorf("serve: tenant %s: draining: %w", t.id, err)
		}
	}
	if t.failed != nil {
		return nil, &errResp{Code: codeInternal, Msg: t.failed.Error()}
	}
	t.maybeCheckpointLocked(0, true)
	return t.st.Result(), nil
}

// drainAndClose drains the stream, tombstones the tenant and marks it
// closed in one critical section, returning the final Result. Because
// no submit can interleave between the drain and the close, every round
// ever acknowledged is included in the Result — the exactly-once
// contract CloseTenant relies on. The tombstone is the only record that
// removes a tenant from recovery, so it is synced before the close is
// acknowledged. A drain or tombstone failure leaves the tenant open so
// the caller can surface the fault.
func (t *tenant) drainAndClose() (*sched.Result, *errResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res, er := t.drainStreamLocked()
	if er != nil {
		return nil, er
	}
	if t.clog != nil {
		err := t.clog.AppendTombstone(t.id)
		if err == nil {
			err = t.clog.Sync()
		}
		if err != nil {
			return nil, &errResp{Code: codeInternal, Msg: fmt.Sprintf("serve: tenant %s: logging tombstone: %v", t.id, err)}
		}
	}
	t.closed = true
	return res, nil
}

// stats copies the tenant's TenantStats row under its lock. The caller
// encodes it after the unlock, and ServiceShare is left zero: it is the
// server's to fill, against every live tenant's served rounds
// (Server.encodeStats).
func (t *tenant) stats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampleDelayFactorLocked()
	cost := t.st.Cost()
	return TenantStats{
		ID:           t.id,
		Policy:       t.polName,
		Round:        t.st.Round(),
		NextSeq:      t.nextSeqLocked(),
		Pending:      t.st.TotalPending(),
		QueueDepth:   t.queuedLocked(),
		QueueCap:     t.cfg.QueueCap,
		Executed:     t.st.Executed(),
		Dropped:      t.st.Dropped(),
		Reconfigs:    t.st.Reconfigs(),
		CostReconfig: cost.Reconfig,
		CostDrop:     cost.Drop,
		MaxPending:   t.maxPending,
		Overloads:    t.overloads,
		BadSeqs:      t.badSeqs,
		Checkpoints:  t.checkpoints,

		Weight:         t.cfg.Weight,
		MinDelay:       max(t.minDelay, 1),
		ServedRounds:   t.served,
		DelayFactor:    t.delayFactorLocked(),
		MaxDelayFactor: t.maxDelayFactor,

		ReservedRate:      t.cfg.ResRate,
		ReservedDelay:     t.cfg.ResDelay,
		BudgetUtilization: t.budgetUtilizationLocked(),
	}
}

// budgetUtilizationLocked is served-over-accrued for a reserved tenant
// (0 until the first pass, or for a best-effort tenant). Callers hold
// mu.
func (t *tenant) budgetUtilizationLocked() float64 {
	if t.bdrAccrued <= 0 {
		return 0
	}
	return float64(t.bdrServed) / t.bdrAccrued
}
