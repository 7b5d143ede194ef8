package serve

// This file is the exported peer surface for the router tier
// (internal/proxy): just enough frame and request-shape knowledge to
// forward protocol traffic without re-implementing the codecs. The
// proxy peeks each request frame for its routing key (the tenant ID),
// relays the bytes verbatim to the chosen backend, and uses the Append*
// helpers to answer the few requests it must handle itself (fleet-wide
// stats and routing errors).

import (
	"bufio"
	"fmt"

	"repro/internal/snap"
)

// PeekInfo describes one request frame without consuming it: enough
// for a router to pick a backend, echo the request's tag on responses
// it generates itself, and decide whether the frame mutates tenant
// state (and so must be teed to a warm standby).
type PeekInfo struct {
	// Tag is the request's tag, which every response — including
	// router-generated errors — must echo.
	Tag uint64
	// StatsAll reports a stats request for every tenant ("" tenant): a
	// router must fan it out and merge the rows. Every other request is
	// routed to the backend owning Tenant.
	StatsAll bool
	// Tenant is the routing key: the tenant the request addresses.
	Tenant string
	// Mutating reports a request that advances tenant state (open,
	// submit-batch, drain, close) — the set a warm-standby tee must
	// replicate. Only stats is read-only.
	Mutating bool
}

// PeekRequest classifies one request frame body. It never panics,
// whatever the bytes; a frame it cannot classify (truncated header
// fields, unknown type) is a protocol error the caller should surface
// to the client before closing the connection.
func PeekRequest(body []byte) (PeekInfo, error) {
	var info PeekInfo
	d := snap.NewDecoder(body)
	info.Tag = d.Uint64()
	typ := d.Uint64()
	if d.Err() != nil {
		return info, fmt.Errorf("serve: truncated request tag or message type")
	}
	switch typ {
	case msgOpen:
		d.Int() // version
		info.Tenant = d.String()
		info.Mutating = true
	case msgSubmitBatch, msgDrain, msgCloseTenant:
		info.Tenant = d.String()
		info.Mutating = true
	case msgTenantStats:
		info.Tenant = d.String()
		info.StatsAll = info.Tenant == ""
	default:
		return info, fmt.Errorf("serve: unknown message type %d", typ)
	}
	if d.Err() != nil {
		return info, fmt.Errorf("serve: truncated request header: %w", d.Err())
	}
	return info, nil
}

// WriteFrame sends one length-prefixed frame — the exported framing
// entry point for peers outside this package (the proxy relay). It
// allocates nothing.
func WriteFrame(w *bufio.Writer, body []byte) error { return writeFrame(w, body) }

// ReadFrame reads one frame body, reusing buf when it is large enough.
// It returns io.EOF only on a clean end of stream.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) { return readFrame(r, buf) }

// AppendStatsResponse encodes a stats response under the request's tag:
// the rows a router merged from its backends, and st carrying their
// summed checkpoint-log counters with one row per backend in
// st.Backends.
func AppendStatsResponse(e *snap.Encoder, info PeekInfo, rows []TenantStats, st *DuraStats) {
	e.Uint64(info.Tag)
	encodeStatsResp(e, rows, st)
}

// AppendErrorResponse encodes a non-retryable bad-request error under
// the request's tag — the router's answer to a frame it cannot classify
// or route.
func AppendErrorResponse(e *snap.Encoder, info PeekInfo, msg string) {
	e.Uint64(info.Tag)
	(&errResp{Code: codeBadRequest, Msg: msg}).encode(e)
}

// AppendUnavailableResponse encodes a retryable draining error under
// the request's tag — the router's answer while a tenant's backend is
// unreachable; a well-behaved client (the load generator) backs off and
// retries.
func AppendUnavailableResponse(e *snap.Encoder, info PeekInfo, msg string) {
	e.Uint64(info.Tag)
	(&errResp{Code: codeDraining, Msg: msg}).encode(e)
}
