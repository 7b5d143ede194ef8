package serve

import (
	"fmt"
	"math"

	"repro/internal/bdr"
)

// This file is the cross-tenant allocation layer: the policy a shard
// worker consults to decide which backlogged tenant to serve next. The
// per-tenant layer (sched.Stream + its policy) bounds delay *inside* a
// stream; the allocator bounds how long admitted round ticks wait
// *between* streams sharing a worker — the variable-processor cup game
// of Kuszmaul–Narayanan, with Chekuri–Moseley's maximum delay factor as
// the cross-tenant objective. See docs/SCHEDULING.md for the model.

// TenantLoad is the scheduling signal one backlogged tenant presents to
// an Allocator: its live backlog, the tightest bound in its delay menu,
// its provisioned weight, and the weighted service it is currently owed.
type TenantLoad struct {
	// Queued is the tenant's backlog: admitted-but-unapplied round ticks.
	// Every load handed to Pick has Queued > 0.
	Queued int
	// MinDelay is the tightest delay bound in the tenant's menu (≥ 1).
	// Queued/MinDelay is the tenant's delay factor: the fraction of its
	// tightest bound the serve-layer backlog alone consumes.
	MinDelay int
	// Weight is the tenant's provisioned service weight (≥ 1): a
	// weight-2 tenant is entitled to twice a weight-1 tenant's share of
	// worker capacity while both are backlogged.
	Weight int
	// Deficit is the weighted service the tenant is owed, maintained by
	// the shard worker across passes: while a tenant is backlogged it
	// accrues credit in proportion to its weight and pays one unit per
	// round served, so its long-run service share converges to
	// Weight/ΣWeights. Positive = underserved.
	Deficit float64
	// Budget, when positive, caps the rounds this tenant may be served
	// in the current pass. It is set by the BDR fractional-share
	// controller (Config.BDR) from the tenant's share of the pass
	// budget; 0 leaves the tenant uncapped (no controller, or an eager
	// unbounded pass).
	Budget int
}

// DelayFactor is Queued/MinDelay: how much of the tenant's tightest
// delay bound its serve-layer backlog alone would consume. At 1.0 a
// round admitted now waits, in stream rounds, as long as the tightest
// bound permits end to end.
func (l TenantLoad) DelayFactor() float64 {
	return float64(l.Queued) / float64(max(l.MinDelay, 1))
}

// Allocator is the cross-tenant policy a shard worker consults: weighted
// deficit round-robin with priority escalation. When any backlogged
// tenant's delay factor reaches the escalation threshold, service is
// restricted to the tenants at or past it — the ones nearest their
// bound — and within the eligible set the most underserved (largest
// deficit) tenant wins, weights respected. Each pick serves at most
// quantum×Weight rounds, so one deep queue can never hold a worker
// while peers wait. Decisions are deterministic (ties go to the lowest
// index): the starvation tests and the bit-identical verification
// harness rely on reproducible picks. It has no state: the zero value
// is the allocator every shard worker runs.
type Allocator struct{}

// The allocator's constants: 8 rounds per pick per unit of weight,
// escalating a tenant at half its tightest delay bound.
const (
	defaultQuantum    = 8
	defaultEscalation = 0.5
)

// NewAllocator builds the allocator for replaying its decisions outside
// a server. spec must be "" or "wdrr", and quantum and escalation must
// both be 0, which selects the constants (8 rounds and 0.5).
func NewAllocator(spec string, quantum int, escalation float64) (*Allocator, error) {
	if spec != "" && spec != "wdrr" {
		return nil, fmt.Errorf("serve: unknown allocator %q (have wdrr)", spec)
	}
	if quantum != 0 || escalation != 0 {
		return nil, fmt.Errorf("serve: allocator quantum %d and escalation %g must be 0 (the constants %d and %g)",
			quantum, escalation, defaultQuantum, defaultEscalation)
	}
	return &Allocator{}, nil
}

// Pick returns the index into loads of the tenant to serve next: it
// restricts service to the escalated set (delay factor ≥ the threshold)
// when that set is non-empty, then takes the largest deficit. loads is
// never empty and every entry has Queued > 0.
func (Allocator) Pick(loads []TenantLoad) int {
	escalated := false
	for i := range loads {
		if loads[i].DelayFactor() >= defaultEscalation {
			escalated = true
			break
		}
	}
	best := -1
	for i := range loads {
		if escalated && loads[i].DelayFactor() < defaultEscalation {
			continue
		}
		if best < 0 || loads[i].Deficit > loads[best].Deficit {
			best = i
		}
	}
	return best
}

// Quantum bounds the rounds applied for the picked tenant before the
// allocator is consulted again: the base quantum times its weight.
func (Allocator) Quantum(l TenantLoad) int {
	return defaultQuantum * max(l.Weight, 1)
}

// passState is one shard worker's reusable scratch for servePass, so a
// steady-state pass allocates nothing (TestServePassAllocFree).
type passState struct {
	scratch []*tenant
	live    []*tenant
	loads   []TenantLoad
	// BDR controller scratch (Config.BDR): the demand/share vectors for
	// the fractional-share computation, and the pass's initial
	// backlogged set retained for budget-utilization accrual after the
	// pick loop mutates live.
	demands  []bdr.Demand
	shares   []bdr.Share
	initLive []*tenant
}

// servePass runs one allocation pass over a shard: it snapshots the
// backlogged tenants, then repeatedly asks the allocator which one to
// serve next, applying up to one quantum of queued round ticks per pick
// and settling the deficit accounts, until the snapshot backlog is
// drained or the budget is spent. intervals 0 means an unlimited budget
// (the eager worker); intervals k > 0 is a paced pass owed k intervals,
// with a budget of k rounds per backlogged tenant, so the aggregate pace
// is on average one round per backlogged tenant per interval while the
// allocator decides the distribution — a budgeted pass is exactly the
// cup game's emptier, with the budget as the processor count. Rounds
// admitted mid-pass are not chased — they re-poke the shard and the
// next pass serves them — so a pass always terminates.
func (s *Server) servePass(sh *shard, ps *passState, intervals int) {
	ps.scratch = sh.snapshot(ps.scratch[:0])
	ps.live = ps.live[:0]
	ps.loads = ps.loads[:0]
	for _, t := range ps.scratch {
		if l, ok := t.load(); ok {
			ps.live = append(ps.live, t)
			ps.loads = append(ps.loads, l)
		}
	}
	budget := intervals * len(ps.loads)
	totalApplied := 0
	if s.ctrl != nil && len(ps.loads) > 0 {
		// BDR fractional shares: convert each backlogged tenant's
		// reservation plus measured backlog into this pass's effective
		// weight and service budget. The controller's guarantee clamp
		// means an admitted reservation's share never drops below its
		// rate, whatever the best-effort tenants demand. An eager pass
		// hands the controller a budget of 0, which leaves every tenant's
		// budget 0: uncapped.
		ps.demands = ps.demands[:0]
		for j, t := range ps.live {
			ps.demands = append(ps.demands, bdr.Demand{
				Res: t.res(), Backlog: ps.loads[j].Queued, Weight: ps.loads[j].Weight,
			})
		}
		if cap(ps.shares) < len(ps.demands) {
			ps.shares = make([]bdr.Share, len(ps.demands))
		}
		ps.shares = ps.shares[:len(ps.demands)]
		s.ctrl.Shares(ps.demands, budget, ps.shares)
		for j := range ps.loads {
			ps.loads[j].Weight = ps.shares[j].Weight
			ps.loads[j].Budget = ps.shares[j].Budget
		}
		ps.initLive = append(ps.initLive[:0], ps.live...)
		for j, t := range ps.initLive {
			t.passApplied, t.passQueued = 0, ps.loads[j].Queued
		}
	}
	if intervals == 0 {
		budget = math.MaxInt
	}
	var alloc Allocator
	for len(ps.loads) > 0 && budget > 0 {
		i := alloc.Pick(ps.loads)
		l := &ps.loads[i]
		q := min(alloc.Quantum(*l), l.Queued, budget)
		if l.Budget > 0 {
			q = min(q, l.Budget)
		}
		t := ps.live[i]
		applied := t.applyQueued(q, s.cfg.CheckpointEvery)
		budget -= applied
		totalApplied += applied
		if s.ctrl != nil {
			t.passApplied += applied
		}
		if applied > 0 {
			// Settle the deficit accounts: every backlogged tenant accrues
			// credit for the rounds just served in proportion to its weight,
			// and the served tenant pays one unit per round — so long-run
			// service shares converge to Weight/ΣWeights while tenants stay
			// backlogged, and an idle tenant accrues nothing.
			var totalW float64
			for j := range ps.loads {
				totalW += float64(max(ps.loads[j].Weight, 1))
			}
			for j := range ps.loads {
				ps.loads[j].Deficit += float64(applied) * float64(max(ps.loads[j].Weight, 1)) / totalW
				ps.live[j].deficit = ps.loads[j].Deficit
			}
			l.Deficit -= float64(applied)
			t.deficit = l.Deficit
		}
		// A pick applies at most the tenant's queue and its BDR budget,
		// so reaching either one — or applying nothing, a poisoned or
		// raced-empty queue — ends the tenant's turn in this pass. An
		// uncapped tenant's budget is 0, which only applied 0 reaches.
		// Ordered removal keeps scan order (and with it tie-breaking)
		// deterministic.
		if applied == 0 || applied == l.Queued || applied == l.Budget {
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			ps.loads = append(ps.loads[:i], ps.loads[i+1:]...)
			continue
		}
		l.Queued -= applied
		if l.Budget > 0 {
			l.Budget -= applied
		}
	}
	if s.ctrl != nil && totalApplied > 0 {
		// Accrue budget-utilization accounting: every reserved tenant that
		// was backlogged at the start of the pass earns its guaranteed
		// fraction of the rounds actually served, whether or not the pick
		// loop reached it, but never more than it had queued: a pass owes
		// no tenant rounds it never asked for. A reserved tenant served
		// less than its accrual shows a utilization below 1 in its stats
		// row.
		for _, t := range ps.initLive {
			if t.res().IsZero() {
				continue
			}
			owed := t.cfg.ResRate / s.ctrl.ShardRate * float64(totalApplied)
			t.accrueBDR(min(owed, float64(t.passQueued)), t.passApplied)
		}
	}
}
