// Package serve is the network layer of the repository: a TCP server
// (cmd/rrserved) hosting many independent tenants — each a live
// sched.Stream with its own policy — behind a small length-prefixed
// binary protocol, plus the matching Client used by the load generator
// (cmd/rrload) and by embedders.
//
// # Wire format
//
// Every message travels in a frame: a 4-byte little-endian length
// prefix followed by that many body bytes (at most MaxFrame). The body
// is encoded with internal/snap's deterministic varint codec and reads
// tag | type | fields: a varint request tag the client picks and every
// response echoes, a varint message type, and the type's fields, which
// are always all present — every frame has one fixed layout. The tag is
// what lets a client keep many requests in flight per connection and
// match acknowledgements that return out of order or coalesced into one
// flush; a synchronous call is simply a window of one. A malformed,
// truncated or oversized frame is a protocol error: the reader reports
// it and the connection is closed — never a panic, pinned by
// FuzzFrameDecode and FuzzResponseDecode.
//
// Submits are vectored: msgSubmitBatch carries K consecutive round
// ticks for one tenant with a per-round admitted-prefix
// acknowledgement, and a single submit is simply a batch of one.
//
// # Rounds, sequence numbers, and exactly-once ingest
//
// Each round tick of a submit names its position in the tenant's round
// sequence. The server accepts a tick only when its sequence number
// equals the tenant's next expected round (rounds applied + rounds
// queued), so a client that resubmits after a lost acknowledgement, a
// reconnect or a server restart can never duplicate or reorder a round:
// stale submits are rejected with a BadSeqError carrying the expected
// sequence, and the client simply resumes from there. Together with
// per-tenant checkpointing this gives exactly-once round application
// end to end — the property the bit-identical integration tests pin.
//
// See docs/SERVER.md for the full protocol and lifecycle description.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sched"
	"repro/internal/snap"
)

// ProtocolVersion is carried in every open request; the server accepts
// exactly this version and answers any other with a bad-version error.
const ProtocolVersion = 12

// MaxBatch bounds the round ticks one submit-batch frame may carry. It
// keeps a hostile length prefix from forcing a large allocation before
// the batch body is validated, and bounds how long one frame can hold a
// tenant's lock.
const MaxBatch = 1024

// MaxPipeline bounds a client Pipeline's in-flight window. Staying well
// under the server's per-connection response queue plus the kernel
// socket buffers guarantees the reap-when-full client loop can never
// deadlock against a server blocked on writing acknowledgements.
const MaxPipeline = 1024

// tagSpace bounds request tags: a client's counter wraps here, so a tag
// costs at most two varint bytes. Tags need only be unique among the
// requests in flight on one connection, which MaxPipeline bounds far
// below it.
const tagSpace = 1 << 14

// MaxFrame bounds a frame body. It must hold the largest legitimate
// message (a stats response for every tenant, a snapshot blob); a
// length prefix beyond it proves a corrupt or hostile peer and closes
// the connection before any allocation is attempted.
const MaxFrame = 1 << 22

// Message types (requests). Responses echo the request's type, except
// for errors which use msgErr.
const (
	msgErr = iota // response-only
	msgOpen
	// msgSubmitBatch carries K consecutive round ticks for one tenant in
	// one frame — one length prefix and one syscall amortized over K
	// rounds. Admission is per round and strictly sequential, so the
	// response names the admitted prefix plus the first rejection.
	msgSubmitBatch
	// msgTenantStats is the server's one read-out. It answers with one
	// stats row per tenant (or for the named one) — counters,
	// cross-tenant scheduling fields and the BDR reservation columns —
	// then the answering server's checkpoint-log counters and the
	// per-backend counter rows only the proxy tier fills (DuraStats).
	msgTenantStats
	msgDrain
	msgCloseTenant
)

// DuraStats is the checkpoint-log block of a stats response: the
// answering server's cumulative append, byte, fsync, rotation,
// compaction and live-segment counts, all zero when durability is off
// (a durable server always has at least one segment). Fsyncs counts
// group commits, which is the number the batching exists to shrink.
type DuraStats struct {
	Appends     int64
	Bytes       int64
	Fsyncs      int64
	Rotations   int64
	Compactions int64
	Segments    int64
	// Backends carries the per-backend rows of a proxy fan-out: when the
	// proxy tier answers an all-tenant stats request, the counters above
	// are the sums over the backends the rows came from and each row
	// names one backend's address with its own counters. A server
	// answering a direct dial leaves it empty.
	Backends []BackendDuraStats
}

// BackendDuraStats is one backend's row in a proxied stats response:
// the backend's address plus its own counters.
type BackendDuraStats struct {
	// Addr is the backend's dial address as configured on the proxy.
	Addr string
	// DuraStats holds the backend's own counters; its Backends field is
	// always empty (the fan-out is one level deep).
	DuraStats
}

func (s *DuraStats) encode(e *snap.Encoder) {
	s.encodeCounters(e)
	e.Int(len(s.Backends))
	for i := range s.Backends {
		e.String(s.Backends[i].Addr)
		s.Backends[i].encodeCounters(e)
	}
}

func (s *DuraStats) encodeCounters(e *snap.Encoder) {
	e.Int64(s.Appends)
	e.Int64(s.Bytes)
	e.Int64(s.Fsyncs)
	e.Int64(s.Rotations)
	e.Int64(s.Compactions)
	e.Int64(s.Segments)
}

func (s *DuraStats) decode(d *snap.Decoder) {
	s.decodeCounters(d)
	n := d.Len()
	s.Backends = nil
	// Grow by decoded row, not by the declared count, so a hostile count
	// cannot force a large allocation.
	for i := 0; i < n && d.Err() == nil; i++ {
		var b BackendDuraStats
		b.Addr = d.String()
		b.decodeCounters(d)
		s.Backends = append(s.Backends, b)
	}
}

func (s *DuraStats) decodeCounters(d *snap.Decoder) {
	s.Appends = d.Int64()
	s.Bytes = d.Int64()
	s.Fsyncs = d.Int64()
	s.Rotations = d.Int64()
	s.Compactions = d.Int64()
	s.Segments = d.Int64()
}

// writeFrame sends one length-prefixed frame. The length header is
// appended into the writer's own buffer, so framing allocates nothing.
func writeFrame(w *bufio.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("serve: frame body %d bytes exceeds MaxFrame %d", len(body), MaxFrame)
	}
	if w.Available() < 4 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(body)))); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame body, reusing buf when it is large enough.
// It returns io.EOF only on a clean end of stream (no bytes read). The
// header is peeked in the reader's own buffer, so framing allocates
// nothing beyond growing buf.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF {
			if len(hdr) == 0 {
				return nil, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("serve: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	r.Discard(4) // cannot fail: Peek buffered these bytes
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("serve: frame body truncated: %w", err)
	}
	return buf, nil
}

// encode writes the tenant description in the one order the wire and
// every checkpoint-log record use: policy, queue cap, N, speed, delta,
// delays, weight, reservation rate and delay.
func (tc *TenantConfig) encode(e *snap.Encoder) {
	e.String(tc.Policy)
	e.Int(tc.QueueCap)
	e.Int(tc.N)
	e.Int(tc.Speed)
	e.Int(tc.Delta)
	e.Ints(tc.Delays)
	e.Int(tc.Weight)
	e.Float64(tc.ResRate)
	e.Float64(tc.ResDelay)
}

func (tc *TenantConfig) decode(d *snap.Decoder) {
	tc.Policy = d.String()
	tc.QueueCap = d.Int()
	tc.N = d.Int()
	tc.Speed = d.Int()
	tc.Delta = d.Int()
	tc.Delays = d.Ints()
	tc.Weight = d.Int()
	tc.ResRate = d.Float64()
	tc.ResDelay = d.Float64()
}

// openMsg is the open request: create a tenant, or re-attach to a live
// one with an equal configuration.
type openMsg struct {
	Version int
	Tenant  string
	Config  TenantConfig
}

func (m *openMsg) encode(e *snap.Encoder) {
	e.Uint64(msgOpen)
	e.Int(m.Version)
	e.String(m.Tenant)
	m.Config.encode(e)
}

func (m *openMsg) decode(d *snap.Decoder) {
	m.Version = d.Int()
	m.Tenant = d.String()
	m.Config.decode(d)
}

// openResp acknowledges an open: NextSeq is the sequence number the next
// submit must carry (0 for a fresh tenant; the resume point for a
// recovered or re-attached one), and Resumed reports an open that
// re-attached to a live tenant.
type openResp struct {
	NextSeq int
	Resumed bool
}

func (m *openResp) encode(e *snap.Encoder) {
	e.Uint64(msgOpen)
	e.Int(m.NextSeq)
	e.Bool(m.Resumed)
}

func (m *openResp) decode(d *snap.Decoder) {
	m.NextSeq = d.Int()
	m.Resumed = d.Bool()
}

// batchMsg carries Ticks[i] as the round tick at sequence Seq+i — K
// consecutive rounds for one tenant in one frame.
type batchMsg struct {
	Tenant string
	Seq    int
	Ticks  []sched.Request
}

func (m *batchMsg) encode(e *snap.Encoder) {
	e.Uint64(msgSubmitBatch)
	e.String(m.Tenant)
	e.Int(m.Seq)
	e.Int(len(m.Ticks))
	for _, tick := range m.Ticks {
		e.Int(len(tick))
		for _, b := range tick {
			e.Int(int(b.Color))
			e.Int(b.Count)
		}
	}
}

// decode reuses m.Ticks and each tick's backing array across frames, so
// a long-lived handler decodes batches without steady-state allocations.
// A malformed body leaves the decoder in its error state and the caller
// must not admit anything — batch rejection is atomic.
func (m *batchMsg) decode(d *snap.Decoder) {
	m.Tenant = d.StringCached(m.Tenant)
	m.Seq = d.Int()
	k := d.Len() // each round tick takes ≥ 1 byte, so Len's bound holds
	if d.Err() != nil {
		return
	}
	if k > MaxBatch {
		d.Failf("serve: batch of %d rounds exceeds MaxBatch %d", k, MaxBatch)
		return
	}
	if k > cap(m.Ticks) {
		m.Ticks = append(m.Ticks[:cap(m.Ticks)], make([]sched.Request, k-cap(m.Ticks))...)
	}
	m.Ticks = m.Ticks[:k]
	for i := range m.Ticks {
		n := d.Len() // each batch takes ≥ 2 bytes
		tick := m.Ticks[i][:0]
		for j := 0; j < n; j++ {
			c, cnt := d.Int(), d.Int()
			if d.Err() != nil {
				return
			}
			tick = append(tick, sched.Batch{Color: sched.Color(c), Count: cnt})
		}
		m.Ticks[i] = tick
	}
}

// batchResp acknowledges a submit batch: Admitted rounds (always a
// prefix — admission is sequential) were queued, Round/QueueDepth
// describe the tenant afterwards, and when Admitted < the batch size,
// Err carries the rejection of round Seq+Admitted.
type batchResp struct {
	Admitted   int
	Round      int
	QueueDepth int
	Err        *errResp // nil when the whole batch was admitted
}

func (m *batchResp) encode(e *snap.Encoder) {
	e.Uint64(msgSubmitBatch)
	e.Int(m.Admitted)
	e.Int(m.Round)
	e.Int(m.QueueDepth)
	e.Bool(m.Err != nil)
	if m.Err != nil {
		m.Err.encodeFields(e)
	}
}

func (m *batchResp) decode(d *snap.Decoder) {
	m.Admitted = d.Int()
	m.Round = d.Int()
	m.QueueDepth = d.Int()
	m.Err = nil
	if d.Bool() {
		m.Err = &errResp{}
		m.Err.decode(d)
	}
}

// tenantMsg is the shape shared by the single-tenant commands (stats,
// drain, close): a type plus the tenant ID ("" asks stats for every
// tenant).
type tenantMsg struct {
	Type   uint64
	Tenant string
}

func (m *tenantMsg) encode(e *snap.Encoder) {
	e.Uint64(m.Type)
	e.String(m.Tenant)
}

// decode reads the tenant ID against the one m already holds, so a
// connection polling one tenant's stats decodes it without allocating.
func (m *tenantMsg) decode(d *snap.Decoder) {
	m.Tenant = d.StringCached(m.Tenant)
}

// TenantStats is one tenant's row of the stats command: scheduling
// totals from the live stream, admission-control counters, the backlog
// high-water mark, the cross-tenant scheduling fields and the BDR
// reservation columns.
type TenantStats struct {
	// ID and Policy identify the tenant and its policy (Policy is the
	// policy's Name, not the spec it was opened with).
	ID     string `json:"id"`
	Policy string `json:"policy"`
	// Round counts rounds applied; NextSeq = Round + QueueDepth is the
	// sequence the next Submit must carry.
	Round   int `json:"round"`
	NextSeq int `json:"next_seq"`
	// Pending counts jobs pending inside the stream; QueueDepth counts
	// admitted round ticks not yet applied (bounded by QueueCap).
	Pending    int `json:"pending"`
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Scheduling totals (cumulative since the stream started, surviving
	// checkpoint/restart).
	Executed     int   `json:"executed"`
	Dropped      int   `json:"dropped"`
	Reconfigs    int   `json:"reconfigs"`
	CostReconfig int64 `json:"cost_reconfig"`
	CostDrop     int64 `json:"cost_drop"`
	// MaxPending is the deepest end-of-round backlog of jobs pending in
	// the stream (since this process started — it is not checkpointed).
	MaxPending int `json:"max_pending"`
	// Admission-control counters (since this process started).
	Overloads   int64 `json:"overloads"`
	BadSeqs     int64 `json:"bad_seqs"`
	Checkpoints int64 `json:"checkpoints"`
	// Cross-tenant scheduling fields.
	//
	// Weight is the tenant's provisioned service weight; MinDelay the
	// tightest bound in its delay menu. DelayFactor = QueueDepth/MinDelay
	// is the live backlog pressure signal the allocator escalates on, and
	// MaxDelayFactor its high-water mark sampled at admission (since this
	// process started). ServedRounds counts round ticks applied by shard
	// workers; ServiceShare is this tenant's fraction of the rounds the
	// server's live tenants have applied — a closed tenant's rounds leave
	// the total with it — and a single-tenant row reads the same share as
	// the tenant's row among all rows. Through rrproxy an all-tenant row
	// carries the fleet-wide share, while a single-tenant request is
	// relayed to the owning backend and reads that backend's share. See
	// docs/SCHEDULING.md.
	Weight         int     `json:"weight,omitempty"`
	MinDelay       int     `json:"min_delay,omitempty"`
	ServedRounds   int64   `json:"served_rounds,omitempty"`
	DelayFactor    float64 `json:"delay_factor,omitempty"`
	MaxDelayFactor float64 `json:"max_delay_factor,omitempty"`
	ServiceShare   float64 `json:"service_share,omitempty"`
	// BDR admission fields. ReservedRate/ReservedDelay are the tenant's
	// admitted reservation (zero for a best-effort tenant).
	// BudgetUtilization is served rounds over the service the
	// reservation accrued across the passes the tenant was backlogged
	// in, each pass's accrual capped at the rounds it had queued — below
	// 1 means the tenant is drawing less than its guarantee, above 1
	// that it is also consuming slack. See docs/SCHEDULING.md.
	ReservedRate      float64 `json:"reserved_rate,omitempty"`
	ReservedDelay     float64 `json:"reserved_delay,omitempty"`
	BudgetUtilization float64 `json:"budget_utilization,omitempty"`
}

// encode writes the row and returns the offset of its ServiceShare,
// which the server patches once the served total is known
// (Server.encodeStats).
func (s *TenantStats) encode(e *snap.Encoder) (shareAt int) {
	e.String(s.ID)
	e.String(s.Policy)
	e.Int(s.Round)
	e.Int(s.NextSeq)
	e.Int(s.Pending)
	e.Int(s.QueueDepth)
	e.Int(s.QueueCap)
	e.Int(s.Executed)
	e.Int(s.Dropped)
	e.Int(s.Reconfigs)
	e.Int64(s.CostReconfig)
	e.Int64(s.CostDrop)
	e.Int(s.MaxPending)
	e.Int64(s.Overloads)
	e.Int64(s.BadSeqs)
	e.Int64(s.Checkpoints)
	e.Int(s.Weight)
	e.Int(s.MinDelay)
	e.Int64(s.ServedRounds)
	e.Float64(s.DelayFactor)
	e.Float64(s.MaxDelayFactor)
	shareAt = e.Len()
	e.Float64(s.ServiceShare)
	e.Float64(s.ReservedRate)
	e.Float64(s.ReservedDelay)
	e.Float64(s.BudgetUtilization)
	return shareAt
}

// decode reads the ID and the policy against the strings s already
// holds (statsCache.decode), returning those without allocating when
// they match.
func (s *TenantStats) decode(d *snap.Decoder) {
	s.ID = d.StringCached(s.ID)
	s.Policy = d.StringCached(s.Policy)
	s.Round = d.Int()
	s.NextSeq = d.Int()
	s.Pending = d.Int()
	s.QueueDepth = d.Int()
	s.QueueCap = d.Int()
	s.Executed = d.Int()
	s.Dropped = d.Int()
	s.Reconfigs = d.Int()
	s.CostReconfig = d.Int64()
	s.CostDrop = d.Int64()
	s.MaxPending = d.Int()
	s.Overloads = d.Int64()
	s.BadSeqs = d.Int64()
	s.Checkpoints = d.Int64()
	s.Weight = d.Int()
	s.MinDelay = d.Int()
	s.ServedRounds = d.Int64()
	s.DelayFactor = d.Float64()
	s.MaxDelayFactor = d.Float64()
	s.ServiceShare = d.Float64()
	s.ReservedRate = d.Float64()
	s.ReservedDelay = d.Float64()
	s.BudgetUtilization = d.Float64()
}

// encodeStatsResp writes the stats response: the rows, then the
// checkpoint-log block with its per-backend rows.
func encodeStatsResp(e *snap.Encoder, rows []TenantStats, st *DuraStats) {
	e.Uint64(msgTenantStats)
	e.Int(len(rows))
	for i := range rows {
		rows[i].encode(e)
	}
	st.encode(e)
}

// statsCache is what a client keeps of the last stats response it
// decoded: each row's ID, in order, and the first row's policy.
type statsCache struct {
	ids    []string
	policy string
}

// decode decodes a stats response against the previous one: row i's ID
// is read against the cached ID i, and each policy against the previous
// row's (the first against the cached one). A repeat read-out of a
// steady fleet thus shares every string with the one before and
// allocates only the rows slice. On success the cache holds this
// response's strings.
func (c *statsCache) decode(d *snap.Decoder) (rows []TenantStats, st DuraStats) {
	n := d.Len()
	if d.Err() == nil && n > 0 {
		rows = make([]TenantStats, 0, min(n, 4096))
	}
	policy := c.policy
	for i := 0; i < n && d.Err() == nil; i++ {
		s := TenantStats{Policy: policy}
		if i < len(c.ids) {
			s.ID = c.ids[i]
		}
		s.decode(d)
		rows = append(rows, s)
		policy = s.Policy
	}
	st.decode(d)
	if d.Err() != nil {
		return nil, DuraStats{}
	}
	c.ids = c.ids[:0]
	for i := range rows {
		c.ids = append(c.ids, rows[i].ID)
	}
	if len(rows) > 0 {
		c.policy = rows[0].Policy
	}
	return rows, st
}

// encodeResult writes a sched.Result (minus the never-recorded
// Schedule) under the given response type (msgDrain or msgCloseTenant,
// which both answer with a Result).
func encodeResult(e *snap.Encoder, typ uint64, r *sched.Result) {
	e.Uint64(typ)
	e.String(r.Policy)
	e.Int64(r.Cost.Reconfig)
	e.Int64(r.Cost.Drop)
	e.Int(r.Executed)
	e.Int(r.Dropped)
	e.Int(r.Reconfigs)
	e.Int(r.Rounds)
	e.Ints(r.DropsByColor)
	e.Ints(r.ExecByColor)
}

func decodeResult(d *snap.Decoder) *sched.Result {
	r := &sched.Result{}
	r.Policy = d.String()
	r.Cost.Reconfig = d.Int64()
	r.Cost.Drop = d.Int64()
	r.Executed = d.Int()
	r.Dropped = d.Int()
	r.Reconfigs = d.Int()
	r.Rounds = d.Int()
	r.DropsByColor = d.Ints()
	r.ExecByColor = d.Ints()
	if d.Err() != nil {
		return nil
	}
	return r
}

// errResp is the error response: a machine-readable code (see
// errors.go), the expected sequence for codeBadSeq, a human-readable
// message, and — meaningful for codeAdmission, zero otherwise — the
// shard's residual capacity.
type errResp struct {
	Code     int
	Expected int
	Msg      string
	// ResidualRate/ResidualDelay describe what would have fit when Code
	// is codeAdmission: the shard's unreserved rate, and its own delay
	// bound (an admissible reservation's delay must exceed it).
	ResidualRate  float64
	ResidualDelay float64
}

func (m *errResp) encode(e *snap.Encoder) {
	e.Uint64(msgErr)
	m.encodeFields(e)
}

func (m *errResp) encodeFields(e *snap.Encoder) {
	e.Int(m.Code)
	e.Int(m.Expected)
	e.String(m.Msg)
	e.Float64(m.ResidualRate)
	e.Float64(m.ResidualDelay)
}

func (m *errResp) decode(d *snap.Decoder) {
	m.Code = d.Int()
	m.Expected = d.Int()
	m.Msg = d.String()
	m.ResidualRate = d.Float64()
	m.ResidualDelay = d.Float64()
}
