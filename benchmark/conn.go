package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/serve"
)

// tenant is one tenant of a workload: its open configuration, the trace
// it loops, and how many rounds the server has admitted for it so far,
// which is the next sequence number.
type tenant struct {
	idx   int
	id    string
	tc    serve.TenantConfig
	trace []sched.Request
	// period is the loop length: the generator's round count, which a
	// trace ending in empty rounds is shorter than.
	period int
	next   int
}

// tick returns the request of round k: trace[k mod period], or no
// arrivals past the trace's end.
func (t *tenant) tick(k int) sched.Request {
	if i := k % t.period; i < len(t.trace) {
		return t.trace[i]
	}
	return nil
}

// fill sets ticks to the rounds from t.next on, for one batch frame.
func (t *tenant) fill(ticks []sched.Request) {
	for k := range ticks {
		ticks[k] = t.tick(t.next + k)
	}
}

// opCounts tallies operations attempted and failed across the run's
// connection goroutines.
type opCounts struct {
	attempted, failed atomic.Int64
}

// fail counts a failed operation and wraps its error.
func (o *opCounts) fail(what string, err error) error {
	o.failed.Add(1)
	return fmt.Errorf("%s: %w", what, err)
}

// benchConn is one connection to the system under test: a serve.Client
// and, in a traced run, the recorder its timing conn reports to. Every
// call is wrapped in a client span; rec is nil when untraced.
type benchConn struct {
	cl  *serve.Client
	rec *recorder
	ops *opCounts
}

func (r *run) dial(addr string) (*benchConn, error) {
	r.ops.attempted.Add(1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, r.ops.fail("dialing "+addr, err)
	}
	c := &benchConn{ops: &r.ops}
	if r.cfg.trace {
		c.rec = newRecorder(len(r.recs), r.epoch)
		c.rec.on = true
		r.recs = append(r.recs, c.rec)
		conn = &timingConn{Conn: conn, rec: c.rec}
	}
	c.cl = serve.NewClient(conn)
	return c, nil
}

func (c *benchConn) close() { c.cl.Close() } // closing a client drops no state the benchmark needs

// open opens t with its configuration, or with tc when it is non-nil.
func (c *benchConn) open(t *tenant, tc *serve.TenantConfig) (next int, resumed bool, err error) {
	if tc == nil {
		tc = &t.tc
	}
	c.ops.attempted.Add(1)
	sp := c.rec.begin(spOpen, t.idx, 0)
	next, resumed, err = c.cl.Open(t.id, *tc)
	c.rec.end(sp)
	return next, resumed, err
}

// submit sends round t.next strictly and advances t.next on admission.
func (c *benchConn) submit(t *tenant) (depth int, err error) {
	c.ops.attempted.Add(1)
	sp := c.rec.begin(spSubmit, t.idx, t.next)
	_, depth, err = c.cl.Submit(t.id, t.next, t.tick(t.next))
	c.rec.end(sp)
	if err != nil {
		return 0, c.ops.fail(fmt.Sprintf("submitting %s round %d", t.id, t.next), err)
	}
	t.next++
	return depth, nil
}

// stage queues ticks as rounds t.next… on a pipeline and advances t.next;
// admission is checked by the pipeline's ack callback.
func (c *benchConn) stage(pl *serve.Pipeline, t *tenant, ticks []sched.Request) error {
	c.ops.attempted.Add(1)
	sp := c.rec.begin(spBatch, t.idx, t.next)
	err := pl.SubmitBatch(t.id, t.next, ticks)
	c.rec.end(sp)
	if err != nil {
		return c.ops.fail(fmt.Sprintf("staging %s rounds %d+%d", t.id, t.next, len(ticks)), err)
	}
	t.next += len(ticks)
	return nil
}

func (c *benchConn) flush(pl *serve.Pipeline) error {
	sp := c.rec.begin(spFlush, -1, -1)
	err := pl.Flush()
	c.rec.end(sp)
	if err != nil {
		c.ops.attempted.Add(1)
		return c.ops.fail("flushing pipeline", err)
	}
	return nil
}

// stats fetches every tenant's stats row for the stats reader.
func (c *benchConn) stats() ([]serve.TenantStats, error) {
	return c.statsAs(spStats, "")
}

// poll fetches the stats row of tenant id, or every row for "", to wait
// for queues to empty.
func (c *benchConn) poll(id string) ([]serve.TenantStats, error) {
	return c.statsAs(spPoll, id)
}

func (c *benchConn) statsAs(n spanName, id string) ([]serve.TenantStats, error) {
	c.ops.attempted.Add(1)
	sp := c.rec.begin(n, -1, -1)
	rows, err := c.cl.Stats(id)
	c.rec.end(sp)
	if err != nil {
		return nil, c.ops.fail("fetching stats", err)
	}
	return rows, nil
}

func (c *benchConn) drain(t *tenant) (*sched.Result, error) {
	c.ops.attempted.Add(1)
	sp := c.rec.begin(spDrain, t.idx, t.next)
	res, err := c.cl.DrainTenant(t.id)
	c.rec.end(sp)
	if err != nil {
		return nil, c.ops.fail("draining "+t.id, err)
	}
	return res, nil
}

func (c *benchConn) duraStats() (serve.DuraStats, error) {
	c.ops.attempted.Add(1)
	sp := c.rec.begin(spDuraStats, -1, -1)
	st, err := c.cl.DuraStats()
	c.rec.end(sp)
	if err != nil {
		return st, c.ops.fail("fetching durability stats", err)
	}
	return st, nil
}
