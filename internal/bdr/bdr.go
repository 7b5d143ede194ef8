// Package bdr implements the bounded-delay resource (BDR) model from
// the source paper: a resource abstraction characterized by a rate (a
// fraction of a dedicated parent resource) and a delay bound (the
// longest interval over which the fraction may fail to materialize).
//
// A BDR reservation (rate, delay) guarantees the supply bound function
//
//	sbf(t) = max(0, rate · (t − delay))
//
// of service over every interval of length t. Reservations compose
// hierarchically: a parent BDR can host a set of child BDRs iff the
// children's rates sum to at most the parent's rate and every child's
// delay exceeds the parent's (Theorem 1), which makes admission an O(n)
// check at each level of a machine → shard → tenant tree.
//
// The package has three parts:
//
//   - BDR itself with the SBF and the Theorem-1 feasibility check
//     CanHost;
//   - Tree, a hierarchical reservation tree with admit and release,
//     used by the serve layer for admission control;
//   - Controller, an online fractional-share controller in the spirit of
//     DFRS (Casanova et al.) that converts admitted reservations plus
//     measured backlog into WDRR weights and per-round service budgets,
//     clamped so the SBF guarantee is never violated.
package bdr

import "math"

// BDR is a bounded-delay resource reservation: Rate is the fraction of
// the parent resource reserved (0 < Rate ≤ 1 for a child; a machine
// root may use Rate > 1 to denote multiple workers), and Delay bounds
// how long, in rounds, the fraction may fail to materialize. The zero
// value means "no reservation".
type BDR struct {
	// Rate is the reserved service rate as a fraction of the parent
	// resource (rounds of service per round of wall time at rate 1).
	Rate float64
	// Delay is the delay bound in rounds: the supply bound function is
	// zero for intervals shorter than Delay.
	Delay float64
}

// IsZero reports whether b is the zero reservation (no guarantee).
func (b BDR) IsZero() bool { return b.Rate == 0 && b.Delay == 0 }

// Valid reports whether b is a well-formed reservation: a positive
// rate and a non-negative, finite delay. The zero value is not Valid —
// callers treat it as "unreserved" before validating.
func (b BDR) Valid() bool {
	return b.Rate > 0 && !math.IsInf(b.Rate, 0) && b.Delay >= 0 && !math.IsInf(b.Delay, 0) &&
		!math.IsNaN(b.Rate) && !math.IsNaN(b.Delay)
}

// SBF is the supply bound function: the least service guaranteed over
// any interval of length t.
func (b BDR) SBF(t float64) float64 {
	if t <= b.Delay {
		return 0
	}
	return b.Rate * (t - b.Delay)
}

// CanHost is the Theorem-1 feasibility check: parent can host children
// iff Σ children.Rate ≤ parent.Rate and every child's Delay strictly
// exceeds the parent's. An empty child set is always feasible. The sum
// uses a small epsilon so that admitting rates that tile the parent
// exactly (e.g. 4 × 0.25) is not rejected for floating-point noise.
func CanHost(parent BDR, children []BDR) bool {
	sum := 0.0
	for _, c := range children {
		if c.Delay <= parent.Delay {
			return false
		}
		sum += c.Rate
	}
	return sum <= parent.Rate*(1+rateEpsilon)
}

// rateEpsilon absorbs floating-point accumulation error when child
// rates tile the parent exactly. It is relative to the parent rate, so
// a parent of rate 4 tolerates proportionally more absolute error than
// a parent of rate 0.25.
const rateEpsilon = 1e-9
