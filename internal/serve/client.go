package serve

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/snap"
)

// TenantConfig describes a tenant: which policy to run, the stream
// configuration the tenant simulates under, and its queue cap, service
// weight and BDR reservation. It is the one tenant description of the
// protocol — open requests carry it — and the server persists it in
// every checkpoint-log record the tenant writes. QueueCap 0 accepts the
// server's default.
type TenantConfig struct {
	Policy string
	N      int
	Speed  int
	Delta  int
	Delays []int
	// QueueCap bounds the tenant's admitted-but-unapplied round ticks;
	// submits beyond it are shed with ErrOverloaded.
	QueueCap int
	// Weight is the tenant's cross-tenant service weight: while several
	// tenants are backlogged, worker capacity is split in proportion to
	// their weights (see docs/SCHEDULING.md). 0 accepts the default of 1.
	Weight int
	// ResRate and ResDelay declare a BDR reservation: a guaranteed
	// fractional service rate in (0, 1] and the delay bound, in rounds,
	// within which that rate must be supplied. Both zero (the default)
	// opens a best-effort tenant. A reservation is subject to the
	// server's supply-bound-function admission check; an infeasible one
	// is rejected with *AdmissionError carrying the shard's residual
	// capacity, and a reservation sent to a server without -bdr is
	// rejected outright.
	ResRate  float64
	ResDelay float64
}

// Client is one connection to an rrserved server. It is safe for
// concurrent use. Every request goes through one exchange: stage it
// under a fresh tag (stage), then receive responses and match them to
// their requests by the echoed tag (receive). A synchronous call is a
// window of one — it stages, receives, and checks that its own tag came
// back — and NewPipeline keeps a bounded window of submits in flight
// when round-trip latency is the bottleneck. Server-side rejections
// come back as the typed errors in errors.go; a transport or protocol
// failure poisons the client — every later call returns the same
// error, and the caller should Dial a fresh one.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  *snap.Encoder
	buf  []byte
	dec  snap.Decoder // the response being read, positioned by receive
	err  error        // sticky transport/protocol error
	// tag is the last request tag issued (it wraps at tagSpace); infl
	// lists the staged requests still awaiting their responses.
	tag  uint64
	infl []inflight
	// stats holds the strings of the last stats response, which the
	// next one is decoded against (call decodes under mu).
	stats statsCache
}

// inflight is one staged request awaiting its response: its tag, the
// type a success response echoes, and — for a submit — the rounds it
// carries and when it was staged.
type inflight struct {
	tag    uint64
	typ    uint64
	tenant string
	seq    int
	rounds int
	sent   time.Time
}

// Dial connects to an rrserved server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dialing %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (Dial is the common path).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		enc:  snap.NewEncoder(),
	}
}

// Close closes the connection. The client is unusable afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = net.ErrClosed
	}
	return c.conn.Close()
}

// SetDeadline bounds every later call on the client by t, as
// net.Conn.SetDeadline does: a call still waiting at t fails with a
// timeout and poisons the client. The zero time removes the bound.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// poison records a transport/protocol failure as the client's sticky
// error and closes the connection; nothing is in flight on it any more.
// Callers hold c.mu.
func (c *Client) poison(err error) error {
	c.err = err
	c.infl = nil
	c.conn.Close()
	return err
}

// stage is the one way a request reaches the wire: it issues the next
// tag, encodes the request after it, frames it into the write buffer
// and records it in flight. Nothing is flushed here — receive pushes the
// buffer before it blocks. Callers hold c.mu.
func (c *Client) stage(req inflight, encode func(*snap.Encoder)) error {
	if c.err != nil {
		return c.err
	}
	c.tag = (c.tag + 1) % tagSpace
	req.tag, req.sent = c.tag, time.Now()
	c.enc.Reset()
	c.enc.Uint64(req.tag)
	encode(c.enc)
	if err := writeFrame(c.bw, c.enc.Bytes()); err != nil {
		return c.poison(err)
	}
	c.infl = append(c.infl, req)
	return nil
}

// receive is the one way a response comes back: it pushes every staged
// frame (the server cannot answer what it has not seen), reads one
// response and matches its tag to an in-flight request, which it
// removes and returns. A success response must echo the request's type
// and comes back as the client's decoder, positioned at its fields and
// valid until the next receive; an error
// response comes back as its typed error, the client still healthy.
// Anything else — a transport failure, a missing tag or type, an
// unknown tag, a wrong type, a malformed error body — poisons the
// client. Callers hold c.mu.
func (c *Client) receive() (req inflight, d *snap.Decoder, err error) {
	if err := c.bw.Flush(); err != nil {
		return req, nil, c.poison(err)
	}
	buf, err := readFrame(c.br, c.buf)
	if err != nil {
		return req, nil, c.poison(err)
	}
	c.buf = buf
	c.dec.Reset(buf)
	d = &c.dec
	tag, typ := d.Uint64(), d.Uint64()
	if d.Err() != nil {
		return req, nil, c.poison(fmt.Errorf("serve: response missing tag or type: %w", d.Err()))
	}
	i := slices.IndexFunc(c.infl, func(r inflight) bool { return r.tag == tag })
	if i < 0 {
		return req, nil, c.poison(fmt.Errorf("serve: response tag %d matches no in-flight request", tag))
	}
	req = c.infl[i]
	c.infl = slices.Delete(c.infl, i, i+1)
	switch typ {
	case req.typ:
		return req, d, nil
	case msgErr:
		var e errResp
		e.decode(d)
		if err := c.done(d); err != nil {
			return req, nil, err
		}
		return req, nil, errFromResp(&e, req.seq)
	}
	return req, nil, c.poison(fmt.Errorf("serve: response type %d to a request of type %d", typ, req.typ))
}

// done validates that a response body was fully consumed; a trailing
// or truncated body is a protocol violation that poisons the client.
// Callers hold c.mu.
func (c *Client) done(d *snap.Decoder) error {
	if err := d.Done(); err != nil {
		return c.poison(fmt.Errorf("serve: malformed response: %w", err))
	}
	return nil
}

// call is one synchronous exchange, a window of one: stage the request,
// receive a response, require that it carries the request's own tag,
// and decode a success response's fields with decode.
func (c *Client) call(typ uint64, encode func(*snap.Encoder), decode func(*snap.Decoder)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.stage(inflight{typ: typ}, encode); err != nil {
		return err
	}
	tag := c.tag
	req, d, err := c.receive()
	if c.err == nil && req.tag != tag {
		return c.poison(fmt.Errorf("serve: response tag %d answers another request than %d", req.tag, tag))
	}
	if err != nil {
		return err
	}
	decode(d)
	return c.done(d)
}

// Open creates tenant on the server, or re-attaches to a live tenant of
// the same ID and configuration. nextSeq is the sequence number the
// next Submit must carry — 0 for a fresh tenant, the resume point for a
// recovered or re-attached one (resumed true).
func (c *Client) Open(tenant string, tc TenantConfig) (nextSeq int, resumed bool, err error) {
	var r openResp
	err = c.call(msgOpen, func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: tenant, Config: tc}).encode(e)
	}, r.decode)
	return r.NextSeq, r.Resumed, err
}

// Submit sends one round tick of arrivals for tenant — a submit batch
// of one. seq must equal the tenant's next expected round sequence
// (from Open, or the previous Submit + 1); a mismatch returns
// *BadSeqError with the resume point. round is the number of rounds the
// server has applied so far and depth the tenant's queue depth after
// admission. A Pipeline sends several rounds per frame and keeps
// several frames in flight.
func (c *Client) Submit(tenant string, seq int, arrivals sched.Request) (round, depth int, err error) {
	one := [1]sched.Request{arrivals}
	var r batchResp
	err = c.call(msgSubmitBatch, func(e *snap.Encoder) {
		(&batchMsg{Tenant: tenant, Seq: seq, Ticks: one[:]}).encode(e)
	}, r.decode)
	if err == nil && r.Err != nil {
		err = errFromResp(r.Err, seq+r.Admitted)
	}
	if err != nil {
		return 0, 0, err
	}
	return r.Round, r.QueueDepth, nil
}

// ReadOut is the server's one read-out, a single stats exchange: one
// tenant's stats row, or every tenant's (sorted by ID) when tenant is "",
// together with the answering server's checkpoint-log counters. Through
// a proxy an all-tenant read-out merges the fleet's rows, sums the
// counters over the backends the rows came from, and lists each one's
// own counters in DuraStats.Backends.
func (c *Client) ReadOut(tenant string) (rows []TenantStats, st DuraStats, err error) {
	err = c.call(msgTenantStats, (&tenantMsg{Type: msgTenantStats, Tenant: tenant}).encode,
		func(d *snap.Decoder) { rows, st = c.stats.decode(d) })
	return rows, st, err
}

// Stats fetches one tenant's stats row, or every tenant's (sorted by
// ID) when tenant is "": the rows of ReadOut.
func (c *Client) Stats(tenant string) ([]TenantStats, error) {
	rows, _, err := c.ReadOut(tenant)
	return rows, err
}

// DrainTenant applies everything the tenant has queued, runs empty
// rounds until no job is pending, checkpoints, and returns the final
// Result. The tenant stays open; draining an already-drained tenant is
// a no-op returning the same Result, so the call is safe to retry.
func (c *Client) DrainTenant(tenant string) (*sched.Result, error) {
	return c.resultCommand(msgDrain, tenant)
}

// CloseTenant drains the tenant, removes it from the server (deleting
// its durable state), and returns the final Result.
func (c *Client) CloseTenant(tenant string) (*sched.Result, error) {
	return c.resultCommand(msgCloseTenant, tenant)
}

func (c *Client) resultCommand(typ uint64, tenant string) (res *sched.Result, err error) {
	err = c.call(typ, (&tenantMsg{Type: typ, Tenant: tenant}).encode,
		func(d *snap.Decoder) { res = decodeResult(d) })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// DuraStats fetches the checkpoint-log counters of an all-tenant
// ReadOut: the server's own, or through a proxy the fleet's sums with
// one row per backend in Backends. All zero means durability is off.
func (c *Client) DuraStats() (DuraStats, error) {
	_, st, err := c.ReadOut("")
	return st, err
}
