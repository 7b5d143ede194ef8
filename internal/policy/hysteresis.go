package policy

import (
	"slices"

	"repro/internal/sched"
)

// Hysteresis is an Everest-inspired baseline (Kokku et al., cited in the
// paper's related work: a run-time scheduler for multi-core network
// processors with per-service delay bounds and a fixed context-switch
// overhead). It admits a color only when its backlog justifies the
// reconfiguration cost — pending ≥ θ·Δ jobs — and keeps a configured
// color until it has repaid its switch (θ·Δ executions) and gone idle, or
// until a color with at least twice its pressure displaces it. θ = 1
// makes a switch break even by construction.
//
// Hysteresis has no eligibility or timestamp machinery; it is the "what a
// practical systems paper would ship" baseline the experiments compare
// the analyzed algorithm against.
type Hysteresis struct {
	env   sched.Env
	cache *Cache
	theta float64

	// credit[c] counts executions still owed before cached color c may
	// be displaced cheaply (0 for every uncached color); pressure is
	// recomputed every round.
	credit        []int
	scratch       []sched.Color
	cachedScratch []sched.Color
}

// NewHysteresis returns the baseline with admission threshold θ·Δ
// (θ ≤ 0 defaults to 1).
func NewHysteresis(theta float64) *Hysteresis {
	if theta <= 0 {
		theta = 1
	}
	return &Hysteresis{theta: theta}
}

// Name implements sched.Policy.
func (h *Hysteresis) Name() string { return "Hysteresis" }

// Reset implements sched.Policy.
func (h *Hysteresis) Reset(env sched.Env) {
	h.env = env
	h.cache = NewCache(env.N, len(env.Delays), false)
	h.credit = make([]int, len(env.Delays))
}

func (h *Hysteresis) threshold() int {
	t := int(h.theta * float64(h.env.Delta))
	if t < 1 {
		t = 1
	}
	return t
}

// Reconfigure implements sched.Policy.
func (h *Hysteresis) Reconfigure(ctx *sched.Context) []sched.Color {
	thr := h.threshold()

	// Candidates: nonidle colors with backlog ≥ θ·Δ, by descending
	// backlog (ties: color order).
	cand := ctx.NonidleColors(h.scratch[:0])
	filtered := cand[:0]
	for _, c := range cand {
		if h.cache.Contains(c) || ctx.Pending(c) >= thr {
			filtered = append(filtered, c)
		}
	}
	slices.SortFunc(filtered, func(a, b sched.Color) int {
		pa, pb := ctx.Pending(a), ctx.Pending(b)
		if pa != pb {
			return pb - pa // descending backlog
		}
		return int(a) - int(b)
	})

	// Evict cached colors that are idle and have repaid their switch.
	h.cachedScratch = h.cache.Colors(h.cachedScratch[:0])
	for _, c := range h.cachedScratch {
		if ctx.Pending(c) == 0 && h.credit[c] <= 0 {
			h.cache.Evict(c)
			h.credit[c] = 0
		}
	}

	// Admit candidates while room; displace only on 2× pressure.
	for _, c := range filtered {
		if h.cache.Contains(c) {
			continue
		}
		if h.cache.Len() < h.cache.Capacity() {
			h.cache.Insert(c)
			h.credit[c] = thr
			continue
		}
		// Find the weakest cached color.
		victim := sched.NoColor
		victimPending := 0
		h.cachedScratch = h.cache.Colors(h.cachedScratch[:0])
		for _, v := range h.cachedScratch {
			p := ctx.Pending(v)
			if victim == sched.NoColor || p < victimPending || (p == victimPending && v > victim) {
				victim = v
				victimPending = p
			}
		}
		if victim != sched.NoColor && h.credit[victim] <= 0 && ctx.Pending(c) >= 2*victimPending+thr {
			h.cache.Evict(victim)
			h.credit[victim] = 0
			h.cache.Insert(c)
			h.credit[c] = thr
		}
	}

	// Pay down credits for colors that will execute this mini-round.
	h.cachedScratch = h.cache.Colors(h.cachedScratch[:0])
	for _, c := range h.cachedScratch {
		if ctx.Pending(c) > 0 && h.credit[c] > 0 {
			h.credit[c]--
		}
	}

	h.scratch = filtered[:0]
	return h.cache.Assignment()
}
