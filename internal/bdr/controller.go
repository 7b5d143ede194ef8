package bdr

import "math"

// Demand is one backlogged tenant's input to the fractional-share
// controller: its admitted reservation (zero if unreserved), its
// measured backlog in queued rounds, and its static WDRR weight.
type Demand struct {
	// Res is the tenant's admitted reservation; the zero BDR marks a
	// best-effort tenant with no guarantee.
	Res BDR
	// Backlog is the tenant's queued rounds at the start of the pass.
	Backlog int
	// Weight is the tenant's static service weight (≥ 1 effective;
	// 0 is treated as 1, matching the allocator's convention).
	Weight int
}

// Share is the controller's output for one tenant: the effective WDRR
// weight for this pass and the per-pass service budget in rounds.
type Share struct {
	// Weight replaces the tenant's static weight for this pass; the
	// allocator's deficit settlement and quantum both scale with it.
	Weight int
	// Budget caps the rounds the tenant may be served this pass when
	// positive; 0 leaves the tenant's service uncapped.
	Budget int
}

// Controller converts reservations plus measured backlog into
// fractional shares, DFRS-style: each tenant's share starts at its
// guaranteed fraction f_i = rate_i / shardRate and the slack
// (1 − Σ f_i over backlogged reserved tenants) is divided among all
// backlogged tenants in proportion to demand — weight for best-effort
// tenants, weight scaled by backlog pressure for reserved ones. Since
// a reserved tenant's share is f_i plus a non-negative slack term, the
// construction never dilutes a guarantee: the SBF clamp is structural,
// not a post-hoc correction.
type Controller struct {
	// ShardRate is the shard's own reserved rate — the denominator of
	// every tenant's guaranteed fraction.
	ShardRate float64
}

// scale is the integer resolution of the emitted weights: a share of
// 1.0 maps to scale.
const scale = 1 << 12

// maxPressure caps how much a reserved tenant's backlog can amplify
// its slack demand, so one deeply backlogged reservation cannot starve
// best-effort tenants of all slack.
const maxPressure = 4.0

// bid returns a backlogged demand's guaranteed fraction of the shard
// (0 for a best-effort tenant) and its demand for slack: its weight,
// scaled for a reserved tenant by its backlog pressure.
func (c *Controller) bid(d *Demand) (f, demand float64) {
	w := float64(d.Weight)
	if w < 1 {
		w = 1
	}
	if d.Res.IsZero() || c.ShardRate <= 0 {
		return 0, w
	}
	// Pressure: backlog relative to the work the reservation can
	// absorb inside its own delay bound. A reservation running at or
	// under its bound contributes modest demand; one falling behind
	// bids for slack up to the cap.
	capacity := d.Res.Rate * d.Res.Delay
	if capacity < 1 {
		capacity = 1
	}
	p := float64(d.Backlog) / capacity
	if p > maxPressure {
		p = maxPressure
	}
	return d.Res.Rate / c.ShardRate, w * p
}

// Shares computes each demand's fractional share for one service pass
// and writes the result into out (which must be len(demands)).
// passBudget is the pass's total service budget in rounds (the paced
// worker's one round per backlogged tenant per interval the pass is
// owed, or 0 for an eager unbounded pass, in which case budgets are
// left uncapped).
func (c *Controller) Shares(demands []Demand, passBudget int, out []Share) {
	// First pass: guaranteed fractions and slack demand.
	guaranteed := 0.0
	totalDemand := 0.0
	for i := range demands {
		d := &demands[i]
		if d.Backlog <= 0 {
			continue
		}
		f, demand := c.bid(d)
		guaranteed += f
		totalDemand += demand
	}
	slack := 1 - guaranteed
	if slack < 0 {
		slack = 0 // overcommit cannot happen post-admission, but stay safe
	}
	// Second pass: share = guaranteed fraction + slack portion, then
	// quantize. The ceil on the guaranteed floor is the SBF clamp: no
	// rounding may push an admitted tenant below its reservation.
	for i := range demands {
		d := &demands[i]
		if d.Backlog <= 0 {
			out[i] = Share{}
			continue
		}
		f, demand := c.bid(d)
		share := f
		if totalDemand > 0 {
			share += slack * demand / totalDemand
		}
		weight := int(math.Round(share * float64(scale)))
		if floor := int(math.Ceil(f * float64(scale))); weight < floor {
			weight = floor
		}
		if weight < 1 {
			weight = 1
		}
		budget := 0
		if passBudget > 0 {
			budget = int(math.Round(share * float64(passBudget)))
			if guard := int(math.Ceil(f * float64(passBudget))); budget < guard {
				budget = guard
			}
			if budget < 1 {
				budget = 1
			}
		}
		out[i] = Share{Weight: weight, Budget: budget}
	}
}
