package policy

import (
	"repro/internal/colorstate"
	"repro/internal/container"
	"repro/internal/sched"
)

// RandomEvict is a randomized baseline in the spirit of the classic
// randomized paging algorithms (the paper builds on Sleator–Tarjan's
// deterministic paging analysis; randomized eviction is the standard
// counterpoint): it admits nonidle eligible colors like EDF but evicts a
// uniformly random cached color when full. The randomness is driven by an
// explicit seed, so runs remain reproducible.
type RandomEvict struct {
	env           sched.Env
	tr            *colorstate.Tracker
	cache         *Cache
	rng           *container.RNG
	seed          uint64
	scratch       []sched.Color
	cachedScratch []sched.Color
	rank          Ranker
}

// NewRandomEvict returns the randomized-eviction baseline with the given
// seed.
func NewRandomEvict(seed uint64) *RandomEvict {
	return &RandomEvict{seed: seed}
}

// Name implements sched.Policy.
func (p *RandomEvict) Name() string { return "RandomEvict" }

// CheckEnv implements sched.EnvChecker: RandomEvict runs a replicated
// cache.
func (p *RandomEvict) CheckEnv(env sched.Env) error { return checkCacheN(env.N, true) }

// Reset implements sched.Policy.
func (p *RandomEvict) Reset(env sched.Env) {
	p.env = env
	p.tr = colorstate.New(env.Delta, env.Delays)
	p.cache = NewCache(env.N, len(env.Delays), true)
	p.rng = container.NewRNG(p.seed)
}

// Reconfigure implements sched.Policy.
func (p *RandomEvict) Reconfigure(ctx *sched.Context) []sched.Color {
	if ctx.Mini == 0 {
		p.tr.BeginRound(ctx.Round, p.cache.Contains)
		for _, b := range ctx.Arrivals {
			p.tr.OnArrival(ctx.Round, b.Color, b.Count)
		}
	}
	elig := p.tr.AppendEligible(p.scratch[:0])
	p.rank.RankEligible(elig, p.tr, ctx)
	top := len(elig)
	if top > p.cache.Capacity() {
		top = p.cache.Capacity()
	}
	for i := 0; i < top; i++ {
		c := elig[i]
		if ctx.Pending(c) == 0 || p.cache.Contains(c) {
			continue
		}
		if p.cache.Len() == p.cache.Capacity() {
			p.cachedScratch = p.cache.Colors(p.cachedScratch[:0])
			victim := p.cachedScratch[p.rng.Intn(len(p.cachedScratch))]
			p.cache.Evict(victim)
		}
		p.cache.Insert(c)
	}
	p.scratch = elig[:0]
	return p.cache.Assignment()
}
