// Package core implements the paper's primary contribution: the ΔLRU-EDF
// online algorithm for rate-limited batched arrivals (§3.1.3, Theorem 1),
// algorithm Distribute reducing batched arrivals to the rate-limited case
// (§4.1, Theorem 2), algorithm VarBatch reducing arbitrary arrivals to
// batched arrivals (§5.1, Theorem 3, with the §5.3 extension to arbitrary
// delay bounds), and Solve, the complete layered online solver for the
// main problem [Δ | 1 | D_ℓ | 1].
package core

import (
	"repro/internal/colorstate"
	"repro/internal/policy"
	"repro/internal/sched"
)

// DLRUEDF is the ΔLRU-EDF reconfiguration scheme of §3.1.3, the novel
// combination of the LRU and EDF principles. The cache holds n/2 distinct
// colors, each replicated in two locations. Half of the distinct capacity
// (n/4 colors) is managed by the ΔLRU rule — the eligible colors with the
// most recent timestamps, idle or not, stay cached, which fights
// thrashing. The other half is managed by the EDF rule over the remaining
// (non-LRU) eligible colors — the top-ranked nonidle colors are brought
// in, which fights underutilization. Evictions always hit the
// lowest-ranked non-LRU color.
//
// Theorem 1: ΔLRU-EDF is resource competitive for rate-limited
// [Δ | 1 | D_ℓ | D_ℓ] with power-of-two delay bounds when n = 8m.
type DLRUEDF struct {
	env   sched.Env
	tr    *colorstate.Tracker
	cache *policy.Cache

	lruShare  float64
	lruQuota  int
	edfQuota  int
	recordTs  bool
	noRepl    bool
	threshold float64
	immediate bool

	// lruMark is indexed by color and marks the current ΔLRU half; a
	// bool slice instead of a map keeps the per-round marking and the
	// protected-eviction checks allocation-free.
	lruMark  []bool
	scratchA []sched.Color
	scratchB []sched.Color
	scratchC []sched.Color
	rank     policy.Ranker

	eligibleDrops   int64
	ineligibleDrops int64

	// Adaptive-split extension (see adaptive.go); nil for the paper's
	// fixed split. prevCache is indexed by color and marks the cache
	// content the previous round requested.
	adaptive       *adaptiveState
	roundDrops     int
	roundReconfigs int
	prevCache      []bool
}

// Option configures a DLRUEDF instance.
type Option func(*DLRUEDF)

// WithLRUShare sets the fraction of the distinct cache capacity managed by
// the ΔLRU rule (default 0.5, the paper's n/4 + n/4 split). Used by the
// split ablation.
func WithLRUShare(share float64) Option {
	return func(d *DLRUEDF) { d.lruShare = share }
}

// WithTimestampRecording enables recording of timestamp-update events so
// super-epoch statistics (§3.4) can be extracted after a run.
func WithTimestampRecording() Option {
	return func(d *DLRUEDF) { d.recordTs = true }
}

// WithoutReplication disables the two-locations-per-color replication of
// §3.1, caching n distinct colors instead of n/2 duplicated ones. Used by
// the replication ablation only; the analysis assumes replication.
func WithoutReplication() Option {
	return func(d *DLRUEDF) { d.noRepl = true }
}

// WithEligibilityThreshold scales the counter threshold at which a color
// becomes eligible: threshold = max(1, factor·Δ). The paper uses factor 1;
// the threshold ablation sweeps it.
func WithEligibilityThreshold(factor float64) Option {
	return func(d *DLRUEDF) { d.threshold = factor }
}

// WithImmediateTimestamps switches to the ablation timestamp rule that
// advances timestamps at wrap time instead of at the next multiple of D_ℓ.
func WithImmediateTimestamps() Option {
	return func(d *DLRUEDF) { d.immediate = true }
}

// NewDLRUEDF returns a fresh ΔLRU-EDF policy.
func NewDLRUEDF(opts ...Option) *DLRUEDF {
	d := &DLRUEDF{lruShare: 0.5}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Name implements sched.Policy.
func (d *DLRUEDF) Name() string { return "DLRU-EDF" }

// CheckEnv implements sched.EnvChecker: ΔLRU-EDF caches n/4 colors by
// the ΔLRU rule and n/4 by the EDF rule, each in two locations, so n
// must be a positive multiple of 4.
func (d *DLRUEDF) CheckEnv(env sched.Env) error {
	if env.N < 4 || env.N%4 != 0 {
		return &sched.ConfigError{Field: "N", Color: -1, Value: env.N, Want: "a positive multiple of 4, for ΔLRU-EDF"}
	}
	return nil
}

// Reset implements sched.Policy.
func (d *DLRUEDF) Reset(env sched.Env) {
	if err := d.CheckEnv(env); err != nil {
		panic(err)
	}
	d.env = env
	threshold := env.Delta
	if d.threshold > 0 {
		threshold = int(d.threshold * float64(env.Delta))
		if threshold < 1 {
			threshold = 1
		}
	}
	d.tr = colorstate.NewWithThreshold(env.Delta, threshold, env.Delays)
	d.tr.SetImmediateTimestamps(d.immediate)
	if d.recordTs {
		d.tr.RecordTsEvents()
	}
	d.cache = policy.NewCache(env.N, len(env.Delays), !d.noRepl)
	cap := d.cache.Capacity()
	d.lruQuota = int(float64(cap) * d.lruShare)
	if d.lruQuota < 0 {
		d.lruQuota = 0
	}
	if d.lruQuota > cap {
		d.lruQuota = cap
	}
	d.edfQuota = cap - d.lruQuota
	d.lruMark = make([]bool, len(env.Delays))
	d.eligibleDrops, d.ineligibleDrops = 0, 0
	d.roundDrops, d.roundReconfigs = 0, 0
	d.prevCache = make([]bool, len(env.Delays))
}

// Tracker exposes the color-state tracker for instrumentation.
func (d *DLRUEDF) Tracker() *colorstate.Tracker { return d.tr }

// EligibleDrops reports the drop cost incurred on eligible jobs so far
// (the quantity bounded by Lemma 3.2).
func (d *DLRUEDF) EligibleDrops() int64 { return d.eligibleDrops }

// IneligibleDrops reports the drop cost incurred on ineligible jobs so far
// (the quantity bounded by Lemma 3.4).
func (d *DLRUEDF) IneligibleDrops() int64 { return d.ineligibleDrops }

// OnDrop implements sched.DropObserver: drops are classified by the
// color's eligibility at drop time (§3.2). The drop phase precedes the
// round's ineligibility rule, so a job dropped in the same round its color
// turns ineligible counts as eligible, matching the phase order in §3.1.
func (d *DLRUEDF) OnDrop(round int, c sched.Color, count int) {
	if d.tr.Eligible(c) {
		d.eligibleDrops += int64(count)
	} else {
		d.ineligibleDrops += int64(count)
	}
	d.roundDrops += count
}

// Reconfigure implements sched.Policy.
func (d *DLRUEDF) Reconfigure(ctx *sched.Context) []sched.Color {
	if ctx.Mini == 0 {
		d.adaptTick()
		d.tr.BeginRound(ctx.Round, d.cache.Contains)
		for _, b := range ctx.Arrivals {
			d.tr.OnArrival(ctx.Round, b.Color, b.Count)
		}
	}

	// ΔLRU half: the lruQuota eligible colors with the most recent
	// timestamps (idleness ignored).
	elig := d.tr.AppendEligible(d.scratchA[:0])
	d.rank.SortByRecency(elig, d.tr, d.cache.Contains)
	lruWant := elig
	if len(lruWant) > d.lruQuota {
		lruWant = lruWant[:d.lruQuota]
	}
	clear(d.lruMark)
	for _, c := range lruWant {
		d.lruMark[c] = true
	}

	// Non-LRU eligible colors in EDF rank order (§3.1.2 ranking); this
	// list contains every cached non-LRU color, so it doubles as the
	// eviction order (worst rank evicted first).
	nonLRU := d.scratchB[:0]
	for _, c := range elig {
		if !d.lruMark[c] {
			nonLRU = append(nonLRU, c)
		}
	}
	d.rank.RankEligible(nonLRU, d.tr, ctx)

	// Bring the LRU colors in, evicting the lowest-ranked non-LRU cached
	// color when full. Since |LRU| ≤ capacity/2 there is always a non-LRU
	// color to evict.
	for _, c := range lruWant {
		if d.cache.Contains(c) {
			continue
		}
		if d.cache.Len() == d.cache.Capacity() {
			if !policy.EvictWorst(d.cache, nonLRU, d.lruMark) {
				panic("core: ΔLRU-EDF could not make room for an LRU color")
			}
		}
		d.cache.Insert(c)
	}

	// EDF half: admit the nonidle non-LRU colors in the top edfQuota
	// rankings, evicting the lowest-ranked non-LRU cached colors.
	policy.AdmitTop(d.cache, nonLRU, d.edfQuota, d.lruMark, ctx)

	if d.adaptive != nil && ctx.Mini == 0 {
		d.scratchC = d.cache.Colors(d.scratchC[:0])
		d.roundReconfigs += d.noteReconfigs(d.scratchC)
		clear(d.prevCache)
		for _, c := range d.scratchC {
			d.prevCache[c] = true
		}
	}

	d.scratchA = elig[:0]
	d.scratchB = nonLRU[:0]
	return d.cache.Assignment()
}
