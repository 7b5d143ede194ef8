package core

import "repro/internal/sched"

// adaptiveState implements the ARC-inspired extension discussed in the
// paper's related work (Megiddo & Modha's Adaptive Replacement Cache
// self-tunes the balance between its recency and frequency lists): instead
// of fixing the LRU/EDF capacity split at n/4 + n/4, the split adapts to
// the observed cost mix. When recent cost is dominated by
// reconfigurations (thrashing), the LRU half grows, adding stability; when
// drops dominate (underutilization), the EDF half grows, adding
// responsiveness. The share moves by a small step per round within
// [minShare, maxShare], so the policy never fully loses either principle —
// the property the paper's counterexamples show is essential.
type adaptiveState struct {
	step     float64
	minShare float64
	maxShare float64
	decay    float64

	reconfigEWMA float64
	dropEWMA     float64
}

// WithAdaptiveSplit enables the adaptive LRU/EDF split. It is an
// extension beyond the paper (ablation A5 evaluates it); the analysis of
// Theorem 1 covers only the fixed 50/50 split.
func WithAdaptiveSplit() Option {
	return func(d *DLRUEDF) {
		d.adaptive = &adaptiveState{
			step:     0.02,
			minShare: 0.25,
			maxShare: 0.75,
			decay:    0.9,
		}
	}
}

// observe folds one round's costs into the moving averages and nudges the
// share. reconfigCost and dropCost are the raw unit counts of the round
// scaled by their prices.
func (a *adaptiveState) observe(share, reconfigCost, dropCost float64) float64 {
	a.reconfigEWMA = a.decay*a.reconfigEWMA + (1-a.decay)*reconfigCost
	a.dropEWMA = a.decay*a.dropEWMA + (1-a.decay)*dropCost
	switch {
	case a.reconfigEWMA > a.dropEWMA*1.25:
		share += a.step
	case a.dropEWMA > a.reconfigEWMA*1.25:
		share -= a.step
	}
	if share < a.minShare {
		share = a.minShare
	}
	if share > a.maxShare {
		share = a.maxShare
	}
	return share
}

// adaptTick is called by DLRUEDF at the start of each round to refresh the
// quotas from the adapted share. roundDrops and roundReconfigs are the
// previous round's counts.
func (d *DLRUEDF) adaptTick() {
	if d.adaptive == nil {
		return
	}
	reconfigCost := float64(d.roundReconfigs * d.env.Delta)
	dropCost := float64(d.roundDrops)
	d.roundReconfigs, d.roundDrops = 0, 0

	d.lruShare = d.adaptive.observe(d.lruShare, reconfigCost, dropCost)
	cap := d.cache.Capacity()
	d.lruQuota = int(float64(cap) * d.lruShare)
	if d.lruQuota < 0 {
		d.lruQuota = 0
	}
	if d.lruQuota > cap {
		d.lruQuota = cap
	}
	d.edfQuota = cap - d.lruQuota
}

// noteReconfigs lets the policy approximate its own reconfiguration count
// by diffing the cache content it requests, cur, against the previous
// round's. The engine charges the true cost; this counter only feeds the
// adaptive controller.
func (d *DLRUEDF) noteReconfigs(cur []sched.Color) int {
	changes := 0
	for _, c := range cur {
		if !d.prevCache[c] {
			changes += 2 // each color occupies two locations (or one without replication)
		}
	}
	return changes
}
