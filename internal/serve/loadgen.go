package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// LoadConfig parameterizes RunLoad, the load generator behind
// cmd/rrload. Each tenant replays an independent per-tenant variant
// (workload.Tenant) of the named workload family, so any party that
// knows the configuration can reconstruct every trace bit-identically —
// which is how Verify checks the server lost and duplicated nothing.
type LoadConfig struct {
	// Addr is the server to drive.
	Addr string
	// Tenants is the number of concurrent tenants (default 64), each on
	// its own connection.
	Tenants int
	// Workload names the workload family (workload.Names; default
	// "router") and Params its parameters; Params.Rounds is the trace
	// length per tenant.
	Workload string
	Params   workload.Params
	// Policy is the tenant policy spec (PolicySpecs; default "dlruedf").
	Policy string
	// N and Speed configure each tenant's stream (default N 8).
	N     int
	Speed int
	// QueueCap is the per-tenant queue cap (0 = server default).
	QueueCap int
	// Rate is the target submit rate per tenant in rounds/sec; 0 runs
	// unpaced. Overload shedding (ErrOverloaded) backs off and retries,
	// so jobs are delayed, never lost.
	Rate float64
	// Pipeline keeps up to this many submit frames in flight per tenant
	// connection; 0 or 1 is strict request/response, each frame
	// acknowledged before the next is sent. Batch packs this many
	// consecutive rounds into each frame (0 or 1 = one round per frame).
	// Every mode runs the same driver, and exactly-once ingest and
	// Verify hold in all of them.
	Pipeline int
	Batch    int
	// Verify replays every trace locally after the run and requires the
	// server's final Results to be bit-identical (LoadReport.Mismatches).
	Verify bool
	// ResRate and ResDelay declare a BDR reservation for every load
	// tenant (rrserved -bdr): a guaranteed fractional
	// service rate and the delay bound it must be supplied within. Both
	// zero (the default) runs best-effort. A tenant whose reservation is
	// rejected at admission (*AdmissionError — the shard is full) falls
	// back to opening best-effort and is counted in
	// LoadReport.AdmissionRejects, so an over-subscribed run degrades
	// loudly instead of failing.
	ResRate  float64
	ResDelay float64
	// RetryTimeout bounds how long one tenant keeps retrying through a
	// server outage (reconnect/backoff) before giving up (default 30s).
	RetryTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *LoadConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 64
	}
	if c.Workload == "" {
		c.Workload = "router"
	}
	if c.Policy == "" {
		c.Policy = "dlruedf"
	}
	if c.N <= 0 {
		c.N = 8
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 30 * time.Second
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.Batch > MaxBatch {
		c.Batch = MaxBatch
	}
	if c.Pipeline > MaxPipeline {
		c.Pipeline = MaxPipeline
	}
}

// LoadReport summarizes a RunLoad: achieved throughput, admission
// behavior, per-submit latency quantiles, and the aggregated scheduling
// totals from every tenant's final (drained) Result.
type LoadReport struct {
	Tenants         int `json:"tenants"`
	RoundsPerTenant int `json:"rounds_per_tenant"`
	// Pipeline and Batch echo the driver mode (see LoadConfig).
	Pipeline int `json:"pipeline,omitempty"`
	Batch    int `json:"batch,omitempty"`

	RoundsSent int64 `json:"rounds_sent"`
	JobsSent   int64 `json:"jobs_sent"`
	// Shed-by-cause breakdown. Overloads counts ErrOverloaded rejections
	// — ring overflow, each retried until admitted. AdmissionRejects
	// counts BDR reservations refused by the server's feasibility check
	// (*AdmissionError); those tenants fall back to best-effort, so the
	// count is the number of tenants running without their requested
	// guarantee. DrainingRejects counts ErrDraining bounces — the server
	// was shutting down, or the proxy had no live backend for the tenant,
	// each retried.
	// Resumes counts sequence rewinds after a reconnect or restart;
	// Reconnects counts re-dial attempts.
	Overloads        int64 `json:"overloads"`
	AdmissionRejects int64 `json:"admission_rejects,omitempty"`
	DrainingRejects  int64 `json:"draining_rejects,omitempty"`
	Resumes          int64 `json:"resumes"`
	Reconnects       int64 `json:"reconnects"`

	ElapsedSec float64 `json:"elapsed_sec"`
	// TargetRate is the configured per-tenant rate (0 = unpaced);
	// AchievedRate is the aggregate admitted rounds/sec across tenants.
	TargetRate   float64 `json:"target_rounds_per_sec"`
	AchievedRate float64 `json:"achieved_rounds_per_sec"`
	// Latency summarizes per-Submit round-trip times in milliseconds.
	Latency stats.Summary `json:"submit_latency_ms"`

	// Aggregated finals across tenants.
	Executed     int   `json:"executed"`
	Dropped      int   `json:"dropped"`
	Reconfigs    int   `json:"reconfigs"`
	CostReconfig int64 `json:"cost_reconfig"`
	CostDrop     int64 `json:"cost_drop"`

	// Cross-tenant scheduling read-out (from the tenants' stats rows,
	// fetched after the run): the worst per-tenant delay-factor
	// high-water mark with the tenant holding it, and the spread of
	// service shares. See docs/SCHEDULING.md for the definitions. All
	// zero when the stats fetch fails — the fetch is best-effort and
	// never fails the run.
	WorstDelayFactor float64 `json:"worst_delay_factor,omitempty"`
	WorstDelayTenant string  `json:"worst_delay_tenant,omitempty"`
	ServiceShareMin  float64 `json:"service_share_min,omitempty"`
	ServiceShareMax  float64 `json:"service_share_max,omitempty"`

	// Mismatches lists tenants whose server Result differed from the
	// local replay (only populated with Verify; empty = bit-identical).
	Mismatches []string `json:"mismatches,omitempty"`

	// Results holds each tenant's final Result, indexed by tenant.
	Results []*sched.Result `json:"-"`
}

// loadTenantID names tenant i of a load run.
func loadTenantID(i int) string { return fmt.Sprintf("load-%03d", i) }

// tenantOutcome is one driver goroutine's take-home.
type tenantOutcome struct {
	res  *sched.Result
	lats []time.Duration
	err  error
}

// RunLoad drives cfg.Tenants concurrent tenants against an rrserved
// server, each submitting its full trace round by round (paced by Rate)
// and draining at the end. Drivers ride out overload shedding, graceful
// drain and server restarts: ErrOverloaded backs off and resubmits the
// same sequence, a reconnect re-opens the tenant and resumes from the
// server's sequence, so every trace round is applied exactly once.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	insts := make([]*sched.Instance, cfg.Tenants)
	for i := range insts {
		inst, err := workload.Tenant(cfg.Workload, cfg.Params, i)
		if err != nil {
			return nil, err
		}
		insts[i] = inst
	}
	rep := &LoadReport{
		Tenants:         cfg.Tenants,
		RoundsPerTenant: insts[0].NumRounds(),
		Pipeline:        cfg.Pipeline,
		Batch:           cfg.Batch,
		TargetRate:      cfg.Rate,
		Results:         make([]*sched.Result, cfg.Tenants),
	}

	var roundsSent, jobsSent, overloads, resumes, reconnects atomic.Int64
	var admissionRejects, drainingRejects atomic.Int64
	ld := &loadDriver{cfg: &cfg, roundsSent: &roundsSent, jobsSent: &jobsSent,
		overloads: &overloads, resumes: &resumes, reconnects: &reconnects,
		admissionRejects: &admissionRejects, drainingRejects: &drainingRejects}

	outs := make([]tenantOutcome, cfg.Tenants)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = ld.drive(i, insts[i], start)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	for i, o := range outs {
		if o.err != nil {
			return rep, fmt.Errorf("serve: load tenant %s: %w", loadTenantID(i), o.err)
		}
		rep.Results[i] = o.res
		rep.Executed += o.res.Executed
		rep.Dropped += o.res.Dropped
		rep.Reconfigs += o.res.Reconfigs
		rep.CostReconfig += o.res.Cost.Reconfig
		rep.CostDrop += o.res.Cost.Drop
		lats = append(lats, o.lats...)
	}
	rep.RoundsSent = roundsSent.Load()
	rep.JobsSent = jobsSent.Load()
	rep.Overloads = overloads.Load()
	rep.AdmissionRejects = admissionRejects.Load()
	rep.DrainingRejects = drainingRejects.Load()
	rep.Resumes = resumes.Load()
	rep.Reconnects = reconnects.Load()
	rep.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		rep.AchievedRate = float64(rep.RoundsSent) / elapsed.Seconds()
	}
	rep.Latency = stats.SummarizeDurations(lats)

	if cfg.Verify {
		for i, inst := range insts {
			ref, err := LocalReference(inst, cfg.Policy, cfg.N, cfg.Speed)
			if err != nil {
				return rep, err
			}
			if !resultsEqual(ref, rep.Results[i]) {
				rep.Mismatches = append(rep.Mismatches, loadTenantID(i))
			}
		}
	}
	rep.fillSchedReadout(&cfg)
	return rep, nil
}

// fillSchedReadout fetches the load tenants' stats rows and fills the
// report's scheduling fields: the worst delay-factor high-water mark
// and the service-share spread. Best-effort — a server that is gone
// leaves everything zero.
func (rep *LoadReport) fillSchedReadout(cfg *LoadConfig) {
	c, err := Dial(cfg.Addr)
	if err != nil {
		return
	}
	defer c.Close()
	rows, err := c.Stats("")
	if err != nil {
		return
	}
	want := make(map[string]bool, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		want[loadTenantID(i)] = true
	}
	first := true
	for _, r := range rows {
		if !want[r.ID] {
			continue // a shared server may host unrelated tenants
		}
		if first || r.MaxDelayFactor > rep.WorstDelayFactor {
			rep.WorstDelayFactor, rep.WorstDelayTenant = r.MaxDelayFactor, r.ID
		}
		rep.ServiceShareMin = min2(first, rep.ServiceShareMin, r.ServiceShare)
		rep.ServiceShareMax = max2(first, rep.ServiceShareMax, r.ServiceShare)
		first = false
	}
}

// min2/max2 fold one value into a running extreme, seeding it on the
// first sample.
func min2(first bool, cur, v float64) float64 {
	if first || v < cur {
		return v
	}
	return cur
}

func max2(first bool, cur, v float64) float64 {
	if first || v > cur {
		return v
	}
	return cur
}

// loadDriver shares the run-wide counters across tenant goroutines.
type loadDriver struct {
	cfg *LoadConfig

	roundsSent, jobsSent              *atomic.Int64
	overloads, resumes, reconnects    *atomic.Int64
	admissionRejects, drainingRejects *atomic.Int64
}

func (ld *loadDriver) logf(format string, args ...any) {
	if ld.cfg.Logf != nil {
		ld.cfg.Logf(format, args...)
	}
}

// retryable reports whether an open/dial failure is worth waiting out:
// transport errors and graceful drain resolve when the server returns;
// a config conflict, unknown policy, or admission rejection never will
// (an infeasible reservation stays infeasible until capacity frees).
func retryable(err error) bool {
	if errors.Is(err, ErrDraining) {
		return true
	}
	var re *RemoteError
	var bs *BadSeqError
	var ae *AdmissionError
	if errors.As(err, &re) || errors.As(err, &bs) || errors.As(err, &ae) ||
		errors.Is(err, ErrTenantExists) || errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrOverloaded) {
		return false
	}
	return true // dial/transport failure
}

// tenantConn owns one driver goroutine's connection — (re)dialing and
// re-opening its tenant with retry.
type tenantConn struct {
	ld *loadDriver
	id string
	tc TenantConfig
	cl *Client
}

// connect (re)dials and re-opens the tenant, returning the server's
// resume sequence. It retries transport failures and graceful drain
// until RetryTimeout.
func (tcn *tenantConn) connect() (int, error) {
	ld := tcn.ld
	cfg := ld.cfg
	if tcn.cl != nil {
		tcn.cl.Close()
		tcn.cl = nil
	}
	deadline := time.Now().Add(cfg.RetryTimeout)
	for {
		c, err := Dial(cfg.Addr)
		if err == nil {
			next, _, oerr := c.Open(tcn.id, tcn.tc)
			if oerr == nil {
				tcn.cl = c
				return next, nil
			}
			c.Close()
			err = oerr
		}
		var ae *AdmissionError
		if errors.As(err, &ae) && tcn.tc.ResRate > 0 {
			// The shard refused the reservation — typed, before any state
			// existed. Fall back to best-effort so the trace still flows,
			// and count the lost guarantee.
			ld.admissionRejects.Add(1)
			ld.logf("load %s: reservation rejected (%v); falling back to best-effort", tcn.id, ae)
			tcn.tc.ResRate, tcn.tc.ResDelay = 0, 0
			continue
		}
		if errors.Is(err, ErrDraining) {
			ld.drainingRejects.Add(1)
		}
		if !retryable(err) {
			return 0, err
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("retry budget exhausted: %w", err)
		}
		ld.reconnects.Add(1)
		time.Sleep(25 * time.Millisecond)
	}
}

// newTenantConn builds the connection state for load tenant i.
func (ld *loadDriver) newTenantConn(i int, inst *sched.Instance) *tenantConn {
	cfg := ld.cfg
	return &tenantConn{ld: ld, id: loadTenantID(i), tc: TenantConfig{
		Policy: cfg.Policy, N: cfg.N, Speed: cfg.Speed,
		Delta: inst.Delta, Delays: inst.Delays, QueueCap: cfg.QueueCap,
		ResRate: cfg.ResRate, ResDelay: cfg.ResDelay,
	}}
}

// drive runs one tenant: open, submit every trace round exactly once,
// drain, riding out shed ticks and server restarts. Submits go through
// a Pipeline of window max(Pipeline, 1) — a window of one is strict
// request/response — in frames of Batch rounds. Staging runs ahead of
// acknowledgements by up to the window; the onAck callback records
// admissions, and the first rejecting acknowledgement stops staging so
// the driver can resync: back off and resubmit on ErrOverloaded, jump
// to the server's resume point on *BadSeqError, reconnect on anything
// else. A paced driver flushes its window before each pacing sleep, so
// a frame never idles in the write buffer waiting for the window to
// fill. A failed drain reconnects and resumes like a failed submit: a
// server that restarted from a checkpoint behind the trace end names an
// earlier resume point, and the same loop re-feeds the lost tail.
// Because admission is sequential and every acknowledgement is
// eventually reaped, exactly-once ingest holds in every mode.
func (ld *loadDriver) drive(i int, inst *sched.Instance, start time.Time) (o tenantOutcome) {
	cfg := ld.cfg
	conn := ld.newTenantConn(i, inst)
	id, trace := conn.id, inst.Requests
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}

	var (
		resync   bool         // a reaped ack carried a rejection
		rejected SubmitResult // the first such ack since the last resync
	)
	onAck := func(r SubmitResult) {
		for k := 0; k < r.Admitted; k++ {
			ld.roundsSent.Add(1)
			ld.jobsSent.Add(int64(trace[r.Seq+k].Jobs()))
		}
		if r.Admitted > 0 {
			o.lats = append(o.lats, r.RTT)
		}
		if r.Err != nil && !resync {
			resync = true
			rejected = r
		}
	}

	// connect (re)dials and resumes the cursor from the server's sequence
	// — in-flight frames whose acknowledgements were lost are accounted
	// for there — on a fresh pipeline.
	var cursor int
	var pl *Pipeline
	connect := func() bool {
		next, err := conn.connect()
		if err != nil {
			o.err = err
			return false
		}
		cursor = min(next, len(trace))
		pl = conn.cl.NewPipeline(max(cfg.Pipeline, 1), onAck)
		resync = false
		return true
	}
	reconnect := func(cause error) bool {
		if errors.Is(cause, ErrDraining) {
			ld.drainingRejects.Add(1)
		}
		ld.logf("load %s: %v; reconnecting", id, cause)
		ld.resumes.Add(1)
		return connect()
	}
	if !connect() {
		return o
	}
	var drainBy time.Time
	for {
		var err error
		for cursor < len(trace) && !resync && err == nil {
			if due := start.Add(time.Duration(cursor+1) * interval); interval > 0 && time.Until(due) > 0 {
				if err = pl.Flush(); err != nil || resync {
					break
				}
				time.Sleep(time.Until(due))
			}
			k := min(cfg.Batch, len(trace)-cursor)
			if err = pl.SubmitBatch(id, cursor, trace[cursor:cursor+k]); err == nil {
				cursor += k
			}
		}
		if err == nil {
			// Drain the window; acknowledgements reaped here can still flip
			// resync, so the rejection check below runs after the flush.
			err = pl.Flush()
		}
		var bs *BadSeqError
		switch {
		case err != nil:
			if !reconnect(err) {
				return o
			}
		case resync && errors.As(rejected.Err, &bs):
			// Frames rejected behind the first rejection changed nothing,
			// so its resume point stands: a duplicate after a lost
			// acknowledgement, or a rewind after a crash restore.
			resync = false
			ld.resumes.Add(1)
			cursor = min(bs.Expected, len(trace))
		case resync && errors.Is(rejected.Err, ErrOverloaded):
			// The tick was shed, not lost: back off and resubmit the same
			// sequence once the round engine has caught up.
			resync = false
			ld.overloads.Add(1)
			cursor = min(rejected.Seq+rejected.Admitted, len(trace))
			time.Sleep(2 * time.Millisecond)
		case resync:
			if !reconnect(rejected.Err) {
				return o
			}
		default:
			res, err := conn.cl.DrainTenant(id)
			if err == nil {
				o.res = res
				conn.cl.Close()
				return o
			}
			if drainBy.IsZero() {
				drainBy = time.Now().Add(cfg.RetryTimeout)
			}
			if time.Now().After(drainBy) {
				o.err = fmt.Errorf("draining: %w", err)
				return o
			}
			if !reconnect(err) {
				return o
			}
		}
	}
}

// LocalReference replays an instance through a local Stream under the
// same policy spec and resources a server tenant would use, returning
// the drained Result — the ground truth RunLoad's Verify and the
// integration tests compare server results against.
func LocalReference(inst *sched.Instance, policySpec string, n, speed int) (*sched.Result, error) {
	pol, err := NewPolicy(policySpec)
	if err != nil {
		return nil, err
	}
	st, err := sched.NewStream(pol, sched.StreamConfig{
		N: n, Speed: speed, Delta: inst.Delta, Delays: inst.Delays,
	})
	if err != nil {
		return nil, err
	}
	for _, req := range inst.Requests {
		if err := st.Advance(req); err != nil {
			return nil, err
		}
	}
	if _, err := st.Drain(); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

// resultsEqual compares two Results field by field, excluding the
// Schedule (which the wire never carries).
func resultsEqual(a, b *sched.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Policy == b.Policy && a.Cost == b.Cost &&
		a.Executed == b.Executed && a.Dropped == b.Dropped &&
		a.Reconfigs == b.Reconfigs && a.Rounds == b.Rounds &&
		slices.Equal(a.DropsByColor, b.DropsByColor) &&
		slices.Equal(a.ExecByColor, b.ExecByColor)
}
