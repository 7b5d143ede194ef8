package policy

import (
	"repro/internal/colorstate"
	"repro/internal/sched"
)

// EDF is the earliest-deadline-first reconfiguration scheme of §3.1.2:
// eligible colors are ranked (nonidle first, then ascending deadline,
// delay bound, color); any nonidle eligible color in the top n/2 rankings
// that is not cached is brought in, evicting the lowest-ranked cached
// color when the cache is full. Each cached color is replicated in two
// locations.
//
// EDF is *not* resource competitive (Appendix B: it thrashes); it is
// implemented as a baseline and for regenerating the Appendix B
// lower-bound construction.
type EDF struct {
	env     sched.Env
	tr      *colorstate.Tracker
	cache   *Cache
	scratch []sched.Color
	rank    Ranker
}

// NewEDF returns a fresh EDF policy.
func NewEDF() *EDF { return &EDF{} }

// Name implements sched.Policy.
func (e *EDF) Name() string { return "EDF" }

// CheckEnv implements sched.EnvChecker: EDF runs a replicated cache.
func (e *EDF) CheckEnv(env sched.Env) error { return checkCacheN(env.N, true) }

// Reset implements sched.Policy.
func (e *EDF) Reset(env sched.Env) {
	e.env = env
	e.tr = colorstate.New(env.Delta, env.Delays)
	e.cache = NewCache(env.N, len(env.Delays), true)
}

// Reconfigure implements sched.Policy.
func (e *EDF) Reconfigure(ctx *sched.Context) []sched.Color {
	if ctx.Mini == 0 {
		e.tr.BeginRound(ctx.Round, e.cache.Contains)
		for _, b := range ctx.Arrivals {
			e.tr.OnArrival(ctx.Round, b.Color, b.Count)
		}
	}
	elig := e.tr.AppendEligible(e.scratch[:0])
	e.rank.RankEligible(elig, e.tr, ctx)
	AdmitTop(e.cache, elig, e.cache.Capacity(), nil, ctx)
	e.scratch = elig[:0]
	return e.cache.Assignment()
}

// AdmitTop applies the EDF admission rule to a ranked candidate list:
// every nonidle candidate among the first `top` ranks that is outside the
// cache is inserted, evicting the lowest-ranked evictable cached color
// when full. ranked must be in best-rank-first order and contain every
// cached evictable color (cached colors are always eligible). protected,
// when non-nil, is indexed by color and marks colors that must not be
// evicted (ΔLRU-EDF protects its LRU half); a plain bool slice rather
// than a map keeps the per-round admission loop allocation-free.
func AdmitTop(cache *Cache, ranked []sched.Color, top int, protected []bool, ctx *sched.Context) {
	if top > len(ranked) {
		top = len(ranked)
	}
	for i := 0; i < top; i++ {
		c := ranked[i]
		if ctx.Pending(c) == 0 || cache.Contains(c) {
			continue
		}
		if cache.Len() == cache.Capacity() {
			if !EvictWorst(cache, ranked, protected) {
				return // nothing evictable; cannot admit more
			}
		}
		cache.Insert(c)
	}
}

// EvictWorst evicts the lowest-ranked cached, unprotected color, scanning
// the ranked list from the back. protected follows the AdmitTop
// convention (nil or indexed by color). It reports whether an eviction
// happened.
func EvictWorst(cache *Cache, ranked []sched.Color, protected []bool) bool {
	for i := len(ranked) - 1; i >= 0; i-- {
		c := ranked[i]
		if protected != nil && protected[c] {
			continue
		}
		if cache.Contains(c) {
			cache.Evict(c)
			return true
		}
	}
	return false
}
