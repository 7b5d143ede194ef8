package serve

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/snap"
)

// SubmitResult is the acknowledgement of one pipelined submit-batch
// frame (Rounds = the batch size). Admission is sequential, so Admitted
// is always a prefix length; when Admitted < Rounds, Err is the
// rejection of round Seq+Admitted, typed exactly as the synchronous
// Submit would have typed it (*BadSeqError carrying the resume point,
// ErrOverloaded, ErrDraining, …).
type SubmitResult struct {
	// Tenant, Seq and Rounds identify the request: round ticks
	// [Seq, Seq+Rounds) of tenant Tenant.
	Tenant string
	Seq    int
	Rounds int
	// Admitted rounds were queued; Round and Depth describe the tenant
	// after the admitted prefix (as in Submit's round/depth returns).
	Admitted int
	Round    int
	Depth    int
	// RTT is the time from staging the frame to decoding its
	// acknowledgement — for a deep window this includes client-side
	// queueing, which is the honest per-request latency of a pipelined
	// load.
	RTT time.Duration
	// Err is nil when the whole frame was admitted.
	Err error
}

// pinflight is one staged-but-unacknowledged pipelined frame.
type pinflight struct {
	tag    uint64
	tenant string
	seq    int
	rounds int
	sent   time.Time
}

// Pipeline keeps up to window submit frames in flight on one Client
// connection, using tagged frames: requests are staged into
// the write buffer without waiting for responses, and acknowledgements
// are reaped — matched to their request by tag — when the window is
// full or on Flush. Against a loopback server this collapses the
// per-round wire cost from one full round trip (two syscalls and a
// scheduler hop each way) to a share of one flush, which is where the
// serve/submit/pipelined/* bench specs get their throughput.
//
// onAck receives every acknowledgement, in reap order, during
// SubmitBatch / Flush calls on this goroutine; rejections (BadSeq,
// Overloaded, …) surface only there, so a caller that cares about
// admission must inspect its acks. The callback must not call back into
// the Client or Pipeline. A nil onAck discards acknowledgements —
// fire-and-forget measurement only.
//
// A Pipeline is not safe for concurrent use, and while it has
// outstanding frames no other Client method may be called (the
// connection's responses belong to the pipeline until Flush returns).
// Transport and protocol failures poison the underlying Client exactly
// as synchronous calls do.
type Pipeline struct {
	c      *Client
	window int
	onAck  func(SubmitResult)

	nextTag uint64
	infl    []pinflight
}

// NewPipeline wraps the client in a pipelined submit window. window is
// clamped to [1, MaxPipeline]; see Pipeline for the onAck contract.
func (c *Client) NewPipeline(window int, onAck func(SubmitResult)) *Pipeline {
	if window < 1 {
		window = 1
	}
	if window > MaxPipeline {
		window = MaxPipeline
	}
	return &Pipeline{c: c, window: window, onAck: onAck}
}

// Outstanding reports the number of staged frames awaiting their
// acknowledgement.
func (p *Pipeline) Outstanding() int {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return len(p.infl)
}

// SubmitBatch stages ticks[i] as the round tick at sequence seq+i — one
// tagged frame carrying the whole batch (a single round is a batch of
// one). When the window is full it first reaps one acknowledgement
// (delivering it to onAck), so the call blocks only when the server is
// a full window behind. The returned error is transport-level only;
// admission rejections arrive through onAck.
func (p *Pipeline) SubmitBatch(tenant string, seq int, ticks []sched.Request) error {
	if len(ticks) > MaxBatch {
		return fmt.Errorf("serve: batch of %d rounds exceeds MaxBatch %d", len(ticks), MaxBatch)
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if len(p.infl) >= p.window {
		if err := p.reapLocked(); err != nil {
			return err
		}
	}
	c.enc.Reset()
	tag := p.stageTag(c.enc)
	(&batchMsg{Tenant: tenant, Seq: seq, Ticks: ticks}).encode(c.enc)
	if err := writeFrame(c.bw, c.enc.Bytes()); err != nil {
		return c.poison(err)
	}
	p.infl = append(p.infl, pinflight{tag: tag, tenant: tenant, seq: seq, rounds: len(ticks), sent: time.Now()})
	return nil
}

// Flush pushes every staged frame to the server and reaps every
// outstanding acknowledgement (delivering each to onAck). After a nil
// return the window is empty and synchronous Client calls are safe
// again.
func (p *Pipeline) Flush() error {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	for len(p.infl) > 0 {
		if err := p.reapLocked(); err != nil {
			return err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return c.poison(err)
	}
	return nil
}

// stageTag writes the tagged-envelope prefix into enc and returns the
// fresh tag.
func (p *Pipeline) stageTag(enc *snap.Encoder) uint64 {
	tag := p.nextTag
	p.nextTag++
	enc.Uint64(msgTagged)
	enc.Uint64(tag)
	return tag
}

// reapLocked flushes the write buffer (the server cannot answer frames
// it has not seen) and consumes one tagged response, matching it to its
// in-flight entry and delivering the SubmitResult to onAck. Callers
// hold c.mu.
func (p *Pipeline) reapLocked() error {
	c := p.c
	if err := c.bw.Flush(); err != nil {
		return c.poison(err)
	}
	buf, err := readFrame(c.br, c.buf)
	if err != nil {
		return c.poison(err)
	}
	c.buf = buf
	d := snap.NewDecoder(buf)
	if typ := d.Uint64(); d.Err() != nil || typ != msgTagged {
		return c.poison(fmt.Errorf("serve: pipelined response is not a tagged frame (type %d, %v)", typ, d.Err()))
	}
	tag := d.Uint64()
	if d.Err() != nil {
		return c.poison(fmt.Errorf("serve: tagged response missing tag: %w", d.Err()))
	}
	idx := -1
	for i := range p.infl {
		if p.infl[i].tag == tag {
			idx = i
			break
		}
	}
	if idx < 0 {
		return c.poison(fmt.Errorf("serve: response tag %d matches no in-flight request", tag))
	}
	e := p.infl[idx]
	p.infl = append(p.infl[:idx], p.infl[idx+1:]...)
	r := SubmitResult{Tenant: e.tenant, Seq: e.seq, Rounds: e.rounds, RTT: time.Since(e.sent)}

	typ := d.Uint64()
	if d.Err() != nil {
		return c.poison(fmt.Errorf("serve: tagged response missing message type: %w", d.Err()))
	}
	switch typ {
	case msgErr:
		var er errResp
		er.decode(d)
		if err := d.Done(); err != nil {
			return c.poison(fmt.Errorf("serve: malformed error response: %w", err))
		}
		r.Err = errFromResp(&er)
	case msgSubmitBatch:
		var br batchResp
		br.decode(d)
		if err := d.Done(); err != nil {
			return c.poison(fmt.Errorf("serve: malformed batch response: %w", err))
		}
		r.Admitted, r.Round, r.Depth = br.Admitted, br.Round, br.QueueDepth
		if br.Err != nil {
			r.Err = errFromResp(br.Err)
		}
	default:
		return c.poison(fmt.Errorf("serve: tagged response type %d for a submit", typ))
	}
	if p.onAck != nil {
		p.onAck(r)
	}
	return nil
}
