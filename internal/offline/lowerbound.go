package offline

import "repro/internal/sched"

// Bound is a certified lower bound on the optimal offline total cost with
// m resources, with the two ingredients reported separately.
type Bound struct {
	// ParEDFDrops is the drop cost of the Par-EDF relaxation (Lemma 3.7):
	// no m-resource schedule drops fewer jobs.
	ParEDFDrops int64
	// ColorCost is Σ_ℓ min(Δ, jobs_ℓ): any schedule either configures
	// color ℓ at least once (≥ Δ) or drops all its jobs (Corollary 3.3's
	// argument).
	ColorCost int64
	// Exact, when ≥ 0, is the brute-force optimum (only set when
	// BracketOPT's search fits its budget).
	Exact int64
}

// Value returns the strongest certified lower bound available.
func (b Bound) Value() int64 {
	v := b.ParEDFDrops
	if b.ColorCost > v {
		v = b.ColorCost
	}
	if b.Exact >= 0 && b.Exact > v {
		v = b.Exact
	}
	return v
}

// LowerBound computes a certified lower bound on OPT's total cost with m
// resources in near-linear time. Competitive-ratio estimates against this
// bound upper-bound the true ratio, so "the ratio stays constant" claims
// validated against it are conservative.
func LowerBound(inst *sched.Instance, m int) Bound {
	b := Bound{Exact: -1}
	b.ParEDFDrops = ParEDFDrops(inst, m, 1)
	delta := int64(inst.Delta)
	for _, jobs := range inst.JobsPerColor() {
		if jobs == 0 {
			continue
		}
		if int64(jobs) < delta {
			b.ColorCost += int64(jobs)
		} else {
			b.ColorCost += delta
		}
	}
	return b
}

// lowerBoundExact augments LowerBound with the exact optimum when the
// branch-and-bound search fits within opts.MaxStates states; otherwise
// Exact stays −1 and the cheap bounds are returned.
func lowerBoundExact(inst *sched.Instance, m int, opts ExactOptions) Bound {
	b := LowerBound(inst, m)
	if opt, err := SolveExact(inst, m, opts); err == nil {
		b.Exact = opt
	}
	return b
}

// Bracket is a certified two-sided estimate of OPT(m): Lower ≤ OPT ≤
// Upper, with UpperSchedule witnessing the upper bound.
type Bracket struct {
	Lower         int64
	Upper         int64
	UpperSchedule *sched.Schedule
}

// Gap returns Upper/Lower (1 means OPT is known exactly); a zero Lower is
// treated as 1 to keep the ratio finite.
func (b Bracket) Gap() float64 {
	lo := b.Lower
	if lo == 0 {
		lo = 1
	}
	return float64(b.Upper) / float64(lo)
}

// BracketStateBudget is the state budget BracketOPT grants the exact
// branch-and-bound search. The pre-B&B solver capped out at 200k string-
// keyed map states; pruned flat-table states are cheap enough to allow
// 2M, which resolves Exact on instance families that previously fell
// back to the loose bounds.
const BracketStateBudget = 2_000_000

// BracketOPT brackets the optimal offline cost with m resources on any
// instance: the lower side is the certified bound (plus the exact optimum
// when the search fits its budget), the upper side is the best schedule
// found by seeding local search with the best static configuration. The
// upper bound is computed first and seeds the exact search's incumbent,
// so branch-and-bound only has to certify or beat it. The true
// competitive ratio of any online run lies between cost/Upper and
// cost/Lower.
func BracketOPT(inst *sched.Instance, m int, searchPasses int) (Bracket, error) {
	start, err := StaticCost(inst.Clone(), BestStaticColors(inst, m), m)
	if err != nil {
		return Bracket{}, err
	}
	// Materialize the static run as a full-horizon schedule so the local
	// search's block moves can re-color any era independently.
	s := &sched.Schedule{Policy: "BestStatic", N: m, Speed: 1}
	row := make([]sched.Color, m)
	cols := BestStaticColors(inst, m)
	for i := range row {
		if i < len(cols) {
			row[i] = cols[i]
		} else {
			row[i] = sched.NoColor
		}
	}
	for r := 0; r < inst.Horizon(); r++ {
		s.Assign = append(s.Assign, append([]sched.Color(nil), row...))
	}
	improved, impRes, err := ImproveSchedule(inst.Clone(), s, searchPasses)
	if err != nil {
		return Bracket{}, err
	}
	upper := impRes.Cost.Total()
	if static := start.Cost.Total(); static < upper {
		upper = static
	}
	// Exact search last, with the local-search upper bound as its
	// incumbent: the search only explores below a cost we already know
	// is achievable.
	lb := lowerBoundExact(inst.Clone(), m, ExactOptions{
		MaxStates:  BracketStateBudget,
		UpperBound: upper,
	})
	br := Bracket{Lower: lb.Value(), Upper: upper, UpperSchedule: improved}
	if lb.Exact >= 0 {
		br.Lower, br.Upper = lb.Exact, lb.Exact
	}
	return br, nil
}
