package policy

import (
	"cmp"
	"slices"

	"repro/internal/colorstate"
	"repro/internal/sched"
)

// Ranker sorts eligible colors into the two orders of §3.1: EDF rank
// (RankEligible) and ΔLRU recency (SortByRecency). Each call computes
// every color's key once, into scratch the Ranker keeps, so no
// comparison reads tracker state, and up to sortRun keys it sorts them
// with an insertion sort whose comparison the compiler inlines. A
// policy holds one Ranker; the zero value is ready, and once warm a
// sort does not allocate. The Ranker carries no state between calls.
type Ranker struct {
	keys []rankKey
}

// rankKey is one color's sort key in two words, ordered as (hi, lo).
// The low 32 bits of lo are the color itself, so two colors never tie
// and the sorted keys read back as the sorted colors. Ties between the
// other key fields break by color, not by input position: the order of
// the result depends only on the set of colors sorted.
type rankKey struct{ hi, lo uint64 }

func (a rankKey) less(b rankKey) bool { return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo }

func (a rankKey) compare(b rankKey) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

func (a rankKey) color() sched.Color { return sched.Color(uint32(a.lo)) }

// edfKey is the EDF ranking key of §3.1.2: nonidle colors first, then
// ascending deadline, then ascending delay bound, then ascending color.
// untilDeadline is the deadline minus the current round, in [1, D_c]
// for every eligible color of a running tracker; it is stored biased by
// 2⁶² below the idle bit, which preserves its order anywhere in
// [−2⁶², 2⁶²). The delay bound (at most 2³⁰, sched's cap) and the color
// (below 2²²) share the second word.
func edfKey(idle bool, untilDeadline, delay int, c sched.Color) rankKey {
	hi := (uint64(untilDeadline) + 1<<62) &^ (1 << 63)
	if idle {
		hi |= 1 << 63
	}
	return rankKey{hi: hi, lo: uint64(delay)<<32 | uint64(uint32(c))}
}

// recencyKey is the ΔLRU recency key of §3.1.1: most recent timestamp
// first, then currently cached colors (to avoid gratuitous churn; the
// paper breaks ties arbitrarily), then ascending color. Flipping every
// bit but the sign bit maps a descending int64 order onto an ascending
// uint64 one.
func recencyKey(ts int, cached bool, c sched.Color) rankKey {
	lo := uint64(uint32(c))
	if !cached {
		lo |= 1 << 32
	}
	return rankKey{hi: uint64(ts) ^ (1<<63 - 1), lo: lo}
}

// RankEligible sorts the given eligible colors into EDF rank order (best
// rank first, see edfKey) using the tracker's per-color deadlines and
// delay bounds and the pending state for idleness.
func (r *Ranker) RankEligible(colors []sched.Color, tr *colorstate.Tracker, ctx *sched.Context) {
	r.keys = r.keys[:0]
	for _, c := range colors {
		r.keys = append(r.keys, edfKey(ctx.Pending(c) == 0, tr.Get(c).Deadline-ctx.Round, tr.Delay(c), c))
	}
	r.sortKeys()
	r.writeColors(colors)
}

// SortByRecency sorts eligible colors by ΔLRU recency (most recent
// timestamp first, see recencyKey). cached reports whether a color is
// currently cached.
func (r *Ranker) SortByRecency(colors []sched.Color, tr *colorstate.Tracker, cached func(sched.Color) bool) {
	r.keys = r.keys[:0]
	for _, c := range colors {
		r.keys = append(r.keys, recencyKey(tr.Get(c).Timestamp, cached(c), c))
	}
	r.sortKeys()
	r.writeColors(colors)
}

// sortRun is the most keys sortKeys insertion-sorts; past it,
// slices.SortFunc bounds the work at O(n log n), since open accepts
// up to 2²² colors. It is a bound against quadratic cost, not a
// measured crossover: every served benchmark tenant has 16 colors.
const sortRun = 32

// sortKeys sorts r.keys.
func (r *Ranker) sortKeys() {
	k := r.keys
	if len(k) > sortRun {
		slices.SortFunc(k, rankKey.compare)
		return
	}
	for i := 1; i < len(k); i++ {
		x, j := k[i], i
		for ; j > 0 && x.less(k[j-1]); j-- {
			k[j] = k[j-1]
		}
		k[j] = x
	}
}

// writeColors writes the colors of r.keys, in order, into colors.
func (r *Ranker) writeColors(colors []sched.Color) {
	colors = colors[:len(r.keys)]
	for i, k := range r.keys {
		colors[i] = k.color()
	}
}

// SyncCacheToSet makes the cache contain exactly the colors in want
// (which must fit the capacity): colors outside want are evicted, missing
// ones inserted. Used by ΔLRU and GreedyPending, whose invariants pin the
// exact cache content each round. It is a thin wrapper over Cache.SyncTo,
// which owns the scratch that keeps the operation allocation-free.
func SyncCacheToSet(cache *Cache, want []sched.Color) {
	cache.SyncTo(want)
}
