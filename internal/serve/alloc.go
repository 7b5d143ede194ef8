package serve

import (
	"fmt"

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

// Allocator picks which backlogged tenant a shard worker serves next.
// Implementations must be deterministic (ties broken by index) — the
// starvation tests and the bit-identical verification harness rely on
// reproducible decisions — and are called from exactly one worker
// goroutine per shard, so they need no internal locking.
type Allocator interface {
	// Name reports the spec string NewAllocator resolves.
	Name() string
	// Pick returns the index into loads of the tenant to serve next.
	// loads is never empty and every entry has Queued > 0.
	Pick(loads []TenantLoad) int
	// Quantum bounds the rounds applied for the picked tenant before the
	// allocator is consulted again; 0 or negative means drain the
	// tenant's current backlog completely before moving on.
	Quantum(l TenantLoad) int
}

// DefaultAllocator is the allocator spec Config.Allocator "" selects.
const DefaultAllocator = "wdrr"

// NewAllocator builds a cross-tenant allocator by spec:
//
//   - "wdrr" (the default): weighted deficit round-robin with priority
//     escalation. When any backlogged tenant's delay factor reaches
//     escalation, service is restricted to the tenants at or past that
//     threshold — the ones nearest their bound — and within the eligible
//     set the most underserved (largest deficit) tenant wins, weights
//     respected. Each pick serves at most quantum×Weight rounds, so one
//     deep queue can never hold a worker while peers wait.
//   - "fifo": the legacy poking order — scan order, each tenant drained
//     completely before the next. Kept as the baseline the skewed
//     benchmark and the starvation test measure against.
//
// quantum ≤ 0 and escalation 0 select the defaults (8 rounds and 0.5);
// escalation < 0 disables escalation entirely.
func NewAllocator(spec string, quantum int, escalation float64) (Allocator, error) {
	switch spec {
	case "", "wdrr":
		if quantum <= 0 {
			quantum = 8
		}
		if escalation == 0 {
			escalation = 0.5
		}
		return &wdrrAllocator{quantum: quantum, escalation: escalation}, nil
	case "fifo":
		return fifoAllocator{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown allocator %q (have fifo, wdrr)", spec)
	}
}

// fifoAllocator reproduces the pre-allocator worker behavior: serve
// backlogged tenants in scan order and drain each one fully before
// moving on. A deep queue therefore holds the worker for its entire
// backlog — the starvation mode the skewed benchmark quantifies.
type fifoAllocator struct{}

func (fifoAllocator) Name() string                { return "fifo" }
func (fifoAllocator) Pick(loads []TenantLoad) int { return 0 }
func (fifoAllocator) Quantum(TenantLoad) int      { return 0 }

// wdrrAllocator is weighted deficit round-robin with delay-factor
// escalation, the default cross-tenant policy.
type wdrrAllocator struct {
	quantum    int     // base rounds per pick, scaled by the tenant's weight
	escalation float64 // delay factor at which a tenant enters the priority set
}

func (a *wdrrAllocator) Name() string { return "wdrr" }

// Pick restricts service to the escalated set (delay factor ≥ the
// threshold) when it is non-empty, then takes the largest deficit;
// ties go to the lowest index so decisions are deterministic.
func (a *wdrrAllocator) Pick(loads []TenantLoad) int {
	escalated := false
	if a.escalation >= 0 {
		for i := range loads {
			if loads[i].DelayFactor() >= a.escalation {
				escalated = true
				break
			}
		}
	}
	best := -1
	for i := range loads {
		if escalated && loads[i].DelayFactor() < a.escalation {
			continue
		}
		if best < 0 || loads[i].Deficit > loads[best].Deficit {
			best = i
		}
	}
	return best
}

func (a *wdrrAllocator) Quantum(l TenantLoad) int {
	return a.quantum * max(l.Weight, 1)
}

// passState is one shard worker's reusable scratch for servePass, so a
// steady-state pass allocates nothing.
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
// drained or the budget is spent. budget 0 means unlimited (the eager
// worker); budget < 0 means one round per backlogged tenant (the paced
// worker), so the aggregate pace matches the pre-allocator behavior
// while the allocator decides the distribution — a budgeted pass is
// exactly the cup game's emptier, with the budget as the processor
// count. Rounds admitted mid-pass are
// not chased — they re-poke the shard and the next pass serves them —
// so a pass always terminates.
func (s *Server) servePass(sh *shard, ps *passState, budget int) {
	ps.scratch = sh.snapshot(ps.scratch[:0])
	ps.live = ps.live[:0]
	ps.loads = ps.loads[:0]
	for _, t := range ps.scratch {
		if l, ok := t.load(); ok {
			ps.live = append(ps.live, t)
			ps.loads = append(ps.loads, l)
		}
	}
	if budget < 0 {
		budget = len(ps.loads)
	}
	unlimited := budget == 0
	totalApplied := 0
	budgeted := false // a BDR pass with per-tenant budgets assigned
	if s.ctrl != nil && len(ps.loads) > 0 {
		// BDR fractional shares: convert each backlogged tenant's
		// reservation plus measured backlog into this pass's effective
		// weight and service budget. The controller's guarantee clamp
		// means an admitted reservation's share never drops below its
		// rate, whatever the best-effort tenants demand.
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
		for _, t := range ps.initLive {
			t.passApplied = 0
		}
		budgeted = !unlimited
	}
	for len(ps.loads) > 0 && (unlimited || budget > 0) {
		i := s.alloc.Pick(ps.loads)
		if i < 0 || i >= len(ps.loads) {
			i = 0 // defensive against a misbehaving Allocator
		}
		q := s.alloc.Quantum(ps.loads[i])
		if q <= 0 || q > ps.loads[i].Queued {
			q = ps.loads[i].Queued
		}
		if !unlimited && q > budget {
			q = budget
		}
		if b := ps.loads[i].Budget; b > 0 && q > b {
			q = b
		}
		t := ps.live[i]
		applied := t.applyQueued(q, s.cfg.CheckpointEvery)
		if !unlimited {
			budget -= applied
		}
		totalApplied += applied
		if s.ctrl != nil {
			t.passApplied += applied
			if ps.loads[i].Budget > 0 {
				ps.loads[i].Budget -= applied
			}
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
			ps.loads[i].Deficit -= float64(applied)
			t.deficit = ps.loads[i].Deficit
		}
		ps.loads[i].Queued -= applied
		budgetSpent := budgeted && ps.loads[i].Budget <= 0
		if ps.loads[i].Queued <= 0 || applied == 0 || budgetSpent {
			// Drained, poisoned/raced empty (applied 0), or out of BDR
			// budget for this pass; either way the tenant leaves this
			// pass. Ordered removal keeps scan order (and with it
			// tie-breaking) deterministic.
			ps.live = append(ps.live[:i], ps.live[i+1:]...)
			ps.loads = append(ps.loads[:i], ps.loads[i+1:]...)
		}
	}
	if s.ctrl != nil && totalApplied > 0 {
		// Accrue budget-utilization accounting: every reserved tenant that
		// was backlogged at the start of the pass earns its guaranteed
		// fraction of the rounds actually served, whether or not the pick
		// loop reached it — a reserved tenant served less than its accrual
		// shows a utilization below 1 in its stats row.
		for _, t := range ps.initLive {
			if t.res().IsZero() {
				continue
			}
			t.accrueBDR(t.cfg.ResRate/s.ctrl.ShardRate*float64(totalApplied), t.passApplied)
		}
	}
}
