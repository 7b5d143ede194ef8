package policy

import (
	"repro/internal/colorstate"
	"repro/internal/sched"
)

// DLRU is the ΔLRU reconfiguration scheme of §3.1.1: it maintains the
// invariant that the n/2 eligible colors with the most recent timestamps
// are cached (each replicated in two locations). Timestamps advance
// roughly every Δ arrivals of a color, and only once a subsequent multiple
// of the color's delay bound has elapsed.
//
// ΔLRU is *not* resource competitive (Appendix A); it is implemented as a
// baseline and for regenerating the Appendix A lower-bound construction.
type DLRU struct {
	env     sched.Env
	tr      *colorstate.Tracker
	cache   *Cache
	scratch []sched.Color
	rank    Ranker
}

// NewDLRU returns a fresh ΔLRU policy.
func NewDLRU() *DLRU { return &DLRU{} }

// Name implements sched.Policy.
func (d *DLRU) Name() string { return "DLRU" }

// CheckEnv implements sched.EnvChecker: ΔLRU runs a replicated cache.
func (d *DLRU) CheckEnv(env sched.Env) error { return checkCacheN(env.N, true) }

// Reset implements sched.Policy.
func (d *DLRU) Reset(env sched.Env) {
	d.env = env
	d.tr = colorstate.New(env.Delta, env.Delays)
	d.cache = NewCache(env.N, len(env.Delays), true)
}

// Reconfigure implements sched.Policy.
func (d *DLRU) Reconfigure(ctx *sched.Context) []sched.Color {
	if ctx.Mini == 0 {
		d.tr.BeginRound(ctx.Round, d.cache.Contains)
		for _, b := range ctx.Arrivals {
			d.tr.OnArrival(ctx.Round, b.Color, b.Count)
		}
	}
	// Desired content: the Capacity() eligible colors with the most
	// recent timestamps, idleness ignored (that is ΔLRU's flaw).
	elig := d.tr.AppendEligible(d.scratch[:0])
	d.rank.SortByRecency(elig, d.tr, d.cache.Contains)
	if len(elig) > d.cache.Capacity() {
		elig = elig[:d.cache.Capacity()]
	}
	SyncCacheToSet(d.cache, elig)
	d.scratch = elig[:0]
	return d.cache.Assignment()
}
