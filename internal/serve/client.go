package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/sched"
	"repro/internal/snap"
)

// TenantConfig describes a tenant: which policy to run, the stream
// configuration the tenant simulates under, and its queue cap, service
// weight and BDR reservation. It is the one tenant description of the
// protocol — open and restore requests carry it, release responses
// return it — and the server persists it as the tenant's meta file.
// QueueCap 0 accepts the server's default.
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
// concurrent use; synchronous requests serialize on the connection in
// strict request/response order, and NewPipeline layers a bounded
// in-flight window on top via tagged frames when round-trip latency is
// the bottleneck. Server-side rejections come back as the
// typed errors in errors.go; a transport or protocol failure poisons
// the client — every later call returns the same error, and the caller
// should Dial a fresh one.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	enc  *snap.Encoder
	buf  []byte
	err  error // sticky transport/protocol error
	// one is Submit's batch-of-one scratch, so a strict submit stages
	// its single tick without allocating.
	one [1]sched.Request
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

// poison records a transport/protocol failure as the client's sticky
// error and closes the connection. Callers hold c.mu.
func (c *Client) poison(err error) error {
	c.err = err
	c.conn.Close()
	return err
}

// roundtrip sends the frame staged in c.enc and reads one response,
// returning a decoder positioned after the message type. Callers hold
// c.mu. wantType is the echoed type of a success response; a msgErr
// response is mapped to its typed error, any other type is a protocol
// violation that poisons the client.
func (c *Client) roundtrip(wantType uint64) (*snap.Decoder, error) {
	if c.err != nil {
		return nil, c.err
	}
	fail := func(err error) (*snap.Decoder, error) {
		return nil, c.poison(err)
	}
	if err := writeFrame(c.bw, c.enc.Bytes()); err != nil {
		return fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	buf, err := readFrame(c.br, c.buf)
	if err != nil {
		return fail(err)
	}
	c.buf = buf
	d := snap.NewDecoder(buf)
	switch typ := d.Uint64(); {
	case d.Err() != nil:
		return fail(fmt.Errorf("serve: response missing message type: %w", d.Err()))
	case typ == msgErr:
		var e errResp
		e.decode(d)
		if err := d.Done(); err != nil {
			return fail(fmt.Errorf("serve: malformed error response: %w", err))
		}
		return nil, errFromResp(&e)
	case typ != wantType:
		return fail(fmt.Errorf("serve: response type %d, expected %d", typ, wantType))
	}
	return d, nil
}

// done validates that a success response was fully consumed; a trailing
// or truncated body is a protocol violation that poisons the client.
func (c *Client) done(d *snap.Decoder) error {
	if err := d.Done(); err != nil {
		c.err = fmt.Errorf("serve: malformed response: %w", err)
		c.conn.Close()
		return c.err
	}
	return nil
}

// Open creates tenant on the server, or re-attaches to a live tenant of
// the same ID and configuration. nextSeq is the sequence number the
// next Submit must carry — 0 for a fresh tenant, the resume point for a
// recovered or re-attached one (resumed true).
func (c *Client) Open(tenant string, tc TenantConfig) (nextSeq int, resumed bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	(&openMsg{Version: ProtocolVersion, Tenant: tenant, Config: tc}).encode(c.enc, msgOpen)
	d, err := c.roundtrip(msgOpen)
	if err != nil {
		return 0, false, err
	}
	var r openResp
	r.decode(d)
	if err := c.done(d); err != nil {
		return 0, false, err
	}
	return r.NextSeq, r.Resumed, nil
}

// Submit sends one round tick of arrivals for tenant — a submit batch
// of one. seq must equal the tenant's next expected round sequence
// (from Open, or the previous Submit + 1); a mismatch returns
// *BadSeqError with the resume point. round is the number of rounds the
// server has applied so far and depth the tenant's queue depth after
// admission.
func (c *Client) Submit(tenant string, seq int, arrivals sched.Request) (round, depth int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.one[0] = arrivals
	_, round, depth, err = c.submitLocked(tenant, seq, c.one[:])
	c.one[0] = nil
	if err != nil {
		return 0, 0, err
	}
	return round, depth, nil
}

// SubmitBatch sends ticks[i] as the round tick at sequence seq+i — up
// to MaxBatch consecutive rounds for one tenant in one frame, amortizing
// the length prefix and the syscall over the batch. Admission is per
// round and sequential: admitted reports the prefix length the server
// queued, and when admitted < len(ticks), err is the rejection of round
// seq+admitted, typed exactly as Submit would have typed it (so
// *BadSeqError still carries the resume point and ErrOverloaded still
// means back off and resubmit). round and depth describe the tenant
// after the admitted prefix.
func (c *Client) SubmitBatch(tenant string, seq int, ticks []sched.Request) (admitted, round, depth int, err error) {
	if len(ticks) > MaxBatch {
		return 0, 0, 0, fmt.Errorf("serve: batch of %d rounds exceeds MaxBatch %d", len(ticks), MaxBatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitLocked(tenant, seq, ticks)
}

// submitLocked is one strict submit-batch round trip. Callers hold c.mu.
func (c *Client) submitLocked(tenant string, seq int, ticks []sched.Request) (admitted, round, depth int, err error) {
	c.enc.Reset()
	(&batchMsg{Tenant: tenant, Seq: seq, Ticks: ticks}).encode(c.enc)
	d, err := c.roundtrip(msgSubmitBatch)
	if err != nil {
		return 0, 0, 0, err
	}
	var r batchResp
	r.decode(d)
	if err := c.done(d); err != nil {
		return 0, 0, 0, err
	}
	if r.Err != nil {
		err = errFromResp(r.Err)
	}
	return r.Admitted, r.Round, r.QueueDepth, err
}

// Stats fetches one tenant's stats row, or every tenant's (sorted by
// ID) when tenant is "".
func (c *Client) Stats(tenant string) ([]TenantStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	(&tenantMsg{Type: msgTenantStats, Tenant: tenant}).encode(c.enc)
	d, err := c.roundtrip(msgTenantStats)
	if err != nil {
		return nil, err
	}
	rows := decodeStatsResp(d)
	if err := c.done(d); err != nil {
		return nil, err
	}
	return rows, nil
}

// Result fetches the tenant's cumulative scheduling totals so far,
// without disturbing the stream.
func (c *Client) Result(tenant string) (*sched.Result, error) {
	return c.resultCommand(msgResult, tenant)
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

func (c *Client) resultCommand(typ uint64, tenant string) (*sched.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	(&tenantMsg{Type: typ, Tenant: tenant}).encode(c.enc)
	d, err := c.roundtrip(typ)
	if err != nil {
		return nil, err
	}
	res := decodeResult(d)
	if err := c.done(d); err != nil {
		return nil, err
	}
	if res == nil {
		c.err = fmt.Errorf("serve: malformed result response")
		c.conn.Close()
		return nil, c.err
	}
	return res, nil
}

// ReleasedTenant is everything Release hands back — the tenant's
// configuration as opened, the sequence number the next Submit must
// carry wherever the tenant lands, and the state blob Restore accepts.
type ReleasedTenant struct {
	Config  TenantConfig
	NextSeq int
	Blob    []byte
}

// Release is the source half of a live migration: the server flushes
// the tenant's admission queue, snapshots it, deletes its durable
// state, and replaces it with a tombstone that answers every later
// command — including re-opens — with the retryable ErrDraining until a
// Restore brings the tenant back. Feed the returned state to Restore on
// the migration target.
func (c *Client) Release(tenant string) (*ReleasedTenant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	(&tenantMsg{Type: msgRelease, Tenant: tenant}).encode(c.enc)
	d, err := c.roundtrip(msgRelease)
	if err != nil {
		return nil, err
	}
	r := &ReleasedTenant{}
	r.decode(d)
	if err := c.done(d); err != nil {
		return nil, err
	}
	return r, nil
}

// Restore installs a released tenant snapshot on the server: the
// target half of a live migration. The declared configuration must
// match the one embedded in the blob. nextSeq is the sequence number
// the tenant's next Submit must carry on this server — it equals the
// ReleasedTenant's NextSeq when the blob came from Release. Restoring a
// tenant that is already open (and not a migration tombstone) fails
// with ErrTenantExists.
func (c *Client) Restore(tenant string, tc TenantConfig, blob []byte) (nextSeq int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	(&openMsg{Version: ProtocolVersion, Tenant: tenant, Config: tc, Blob: blob}).encode(c.enc, msgRestore)
	d, err := c.roundtrip(msgRestore)
	if err != nil {
		return 0, err
	}
	var r openResp
	r.decode(d)
	if err := c.done(d); err != nil {
		return 0, err
	}
	return r.NextSeq, nil
}

// Ping checks liveness, reporting whether the server is draining and
// how many tenants it hosts.
func (c *Client) Ping() (draining bool, tenants int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	c.enc.Uint64(msgPing)
	d, err := c.roundtrip(msgPing)
	if err != nil {
		return false, 0, err
	}
	draining = d.Bool()
	tenants = d.Int()
	if err := c.done(d); err != nil {
		return false, 0, err
	}
	return draining, tenants, nil
}

// DuraStats reports the server's durability-backend counters: mode
// ("log" or "off"), append/byte/fsync totals, and the group-commit
// log's delta, rotation, compaction and segment counts. A proxy answers
// with the counters summed across its live backends and a per-backend
// breakdown in Backends, each row labelled with the backend's address.
func (c *Client) DuraStats() (DuraStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	c.enc.Uint64(msgDuraStats)
	d, err := c.roundtrip(msgDuraStats)
	if err != nil {
		return DuraStats{}, err
	}
	var st DuraStats
	st.decode(d)
	if err := c.done(d); err != nil {
		return DuraStats{}, err
	}
	return st, nil
}
