package serve

import (
	"errors"
	"fmt"
)

// Wire error codes. The client maps them back to the exported error
// values below, so embedders never see raw codes.
const (
	codeInternal = iota
	codeOverloaded
	codeBadSeq
	codeUnknownTenant
	codeTenantExists
	codeDraining
	codeInvalidArrival
	codeBadRequest
	codeBadPolicy
	codeBadVersion
	codeAdmission
)

// Sentinel errors a Client surfaces for the server's admission-control
// and lifecycle rejections. Test with errors.Is.
var (
	// ErrOverloaded reports that the tenant's pending-queue cap was hit:
	// the round tick was shed, not buffered. Back off and resubmit the
	// same sequence number.
	ErrOverloaded = errors.New("serve: tenant queue full, round tick shed")
	// ErrDraining reports that the server is shutting down gracefully and
	// no longer admits work. Reconnect and resume once it is back.
	ErrDraining = errors.New("serve: server is draining, not admitting work")
	// ErrUnknownTenant reports a command for a tenant the server does not
	// host (never opened, or closed).
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrTenantExists reports an open whose configuration conflicts with
	// the live tenant of the same ID.
	ErrTenantExists = errors.New("serve: tenant exists with a different configuration")
)

// BadSeqError reports a Submit whose sequence number does not equal the
// tenant's next expected round sequence. Expected is the resume point:
// sequences below it were already admitted (a duplicate after a lost
// acknowledgement); submitting Expected continues the stream. Test with
// errors.As.
type BadSeqError struct {
	Got      int
	Expected int
}

// Error formats the mismatch with both the got and expected sequences.
func (e *BadSeqError) Error() string {
	return fmt.Sprintf("serve: bad round sequence %d, expected %d", e.Got, e.Expected)
}

// AdmissionError reports an open whose BDR reservation
// failed the shard's supply-bound-function feasibility check
// (docs/SCHEDULING.md "Admission"). The tenant was rejected before any
// state was created — nothing was queued or shed. ResidualRate and
// ResidualDelay describe what would have fit on the shard the tenant
// hashed to: a reservation is admissible iff its rate is at most
// ResidualRate and its delay strictly exceeds ResidualDelay. Test with
// errors.As; the rejection is not retryable without shrinking the
// reservation.
type AdmissionError struct {
	// ResidualRate is the rate still unreserved on the tenant's shard.
	ResidualRate float64
	// ResidualDelay is the shard's own delay bound; an admissible
	// reservation must declare a strictly larger delay.
	ResidualDelay float64
	// Msg is the server's human-readable rejection.
	Msg string
}

// Error returns the server's message with the residual capacity.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: %s (residual rate %g, min delay >%g)",
		e.Msg, e.ResidualRate, e.ResidualDelay)
}

// RemoteError is any other server-reported failure (invalid arrivals,
// malformed request, unknown policy, internal fault), carrying the wire
// code and the server's message.
type RemoteError struct {
	Code int
	Msg  string
}

// Error returns the server's message under the serve: prefix.
func (e *RemoteError) Error() string { return "serve: " + e.Msg }

// errFromResp converts a decoded error response into the typed error
// the Client returns. seq is the sequence of the round the response
// rejects, which a *BadSeqError reports as Got.
func errFromResp(m *errResp, seq int) error {
	switch m.Code {
	case codeOverloaded:
		return ErrOverloaded
	case codeDraining:
		return ErrDraining
	case codeUnknownTenant:
		return ErrUnknownTenant
	case codeTenantExists:
		return ErrTenantExists
	case codeBadSeq:
		return &BadSeqError{Got: seq, Expected: m.Expected}
	case codeAdmission:
		return &AdmissionError{
			ResidualRate:  m.ResidualRate,
			ResidualDelay: m.ResidualDelay,
			Msg:           m.Msg,
		}
	default:
		return &RemoteError{Code: m.Code, Msg: m.Msg}
	}
}
