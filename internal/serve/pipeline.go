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

// Pipeline keeps up to window submit frames in flight on one Client
// connection: requests are staged into the write buffer without waiting
// for responses, and acknowledgements are reaped — matched to their
// request by tag — when the window is full or on Flush. Against a
// loopback server this collapses the per-round wire cost from one full
// round trip (two syscalls and a scheduler hop each way) to a share of
// one flush, which is where pipelined rrload runs and the submit load of
// benchmark/ get their throughput. A window of one is the synchronous
// exchange: SubmitBatch returns only after its own frame is
// acknowledged.
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
}

// NewPipeline wraps the client in a pipelined submit window. window is
// clamped to [1, MaxPipeline]; see Pipeline for the onAck contract.
func (c *Client) NewPipeline(window int, onAck func(SubmitResult)) *Pipeline {
	return &Pipeline{c: c, window: min(max(window, 1), MaxPipeline), onAck: onAck}
}

// SubmitBatch stages ticks[i] as the round tick at sequence seq+i — one
// frame carrying the whole batch (a single round is a batch of one).
// Once the window is full it reaps acknowledgements (delivering each to
// onAck) until one slot is free again, so the call blocks only when the
// server is a full window behind. The returned error is transport-level
// only; admission rejections arrive through onAck.
func (p *Pipeline) SubmitBatch(tenant string, seq int, ticks []sched.Request) error {
	if len(ticks) > MaxBatch {
		return fmt.Errorf("serve: batch of %d rounds exceeds MaxBatch %d", len(ticks), MaxBatch)
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.stage(inflight{typ: msgSubmitBatch, tenant: tenant, seq: seq, rounds: len(ticks)},
		func(e *snap.Encoder) { (&batchMsg{Tenant: tenant, Seq: seq, Ticks: ticks}).encode(e) })
	for err == nil && len(c.infl) >= p.window {
		err = p.reapLocked()
	}
	return err
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
	for len(c.infl) > 0 {
		if err := p.reapLocked(); err != nil {
			return err
		}
	}
	return nil
}

// reapLocked receives one acknowledgement and delivers it to onAck as a
// SubmitResult. Callers hold c.mu.
func (p *Pipeline) reapLocked() error {
	c := p.c
	req, d, err := c.receive()
	if c.err != nil {
		return c.err
	}
	r := SubmitResult{Tenant: req.tenant, Seq: req.seq, Rounds: req.rounds, RTT: time.Since(req.sent), Err: err}
	if err == nil {
		var br batchResp
		br.decode(d)
		if err := c.done(d); err != nil {
			return err
		}
		r.Admitted, r.Round, r.Depth = br.Admitted, br.Round, br.QueueDepth
		if br.Err != nil {
			r.Err = errFromResp(br.Err, req.seq+br.Admitted)
		}
	}
	if p.onAck != nil {
		p.onAck(r)
	}
	return nil
}
