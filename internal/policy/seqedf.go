package policy

import (
	"repro/internal/colorstate"
	"repro/internal/sched"
)

// SeqEDF is algorithm Seq-EDF of §3.3: identical to EDF except that it is
// given m resources and uses the entire capacity for distinct colors (no
// replication). Run it at Speed 2 to obtain DS-Seq-EDF, the double-speed
// variant used in the proof of Lemma 3.2; at every mini-round it
// re-evaluates idleness, so a color whose jobs were exhausted in the first
// mini-round yields its slots in the second.
type SeqEDF struct {
	env     sched.Env
	tr      *colorstate.Tracker
	cache   *Cache
	scratch []sched.Color
	rank    Ranker
	pure    bool
}

// NewSeqEDF returns a fresh Seq-EDF policy with the standard Δ-eligibility
// gate of §3.1.
func NewSeqEDF() *SeqEDF { return &SeqEDF{} }

// NewPureSeqEDF returns Seq-EDF with the eligibility threshold lowered to
// a single job, so every color with pending jobs is schedulable. This is
// the variant the proofs of Lemmas 3.8–3.10 reason about when DS-Seq-EDF
// is compared with Par-EDF, which has no eligibility notion either.
func NewPureSeqEDF() *SeqEDF { return &SeqEDF{pure: true} }

// Name implements sched.Policy.
func (s *SeqEDF) Name() string {
	if s.pure {
		return "PureSeqEDF"
	}
	return "SeqEDF"
}

// Reset implements sched.Policy.
func (s *SeqEDF) Reset(env sched.Env) {
	s.env = env
	threshold := env.Delta
	if s.pure {
		threshold = 1
	}
	s.tr = colorstate.NewWithThreshold(env.Delta, threshold, env.Delays)
	s.cache = NewCache(env.N, len(env.Delays), false)
}

// Reconfigure implements sched.Policy.
func (s *SeqEDF) Reconfigure(ctx *sched.Context) []sched.Color {
	if ctx.Mini == 0 {
		s.tr.BeginRound(ctx.Round, s.cache.Contains)
		for _, b := range ctx.Arrivals {
			s.tr.OnArrival(ctx.Round, b.Color, b.Count)
		}
	}
	elig := s.tr.AppendEligible(s.scratch[:0])
	s.rank.RankEligible(elig, s.tr, ctx)
	AdmitTop(s.cache, elig, s.cache.Capacity(), nil, ctx)
	s.scratch = elig[:0]
	return s.cache.Assignment()
}
