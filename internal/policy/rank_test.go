package policy

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/colorstate"
	"repro/internal/sched"
)

func TestRankKeyLess(t *testing.T) {
	type k struct {
		idle            bool
		deadline, delay int
		c               sched.Color
	}
	cases := []struct {
		a, b k
		want bool
	}{
		// Nonidle before idle, regardless of deadline.
		{k{idle: false, deadline: 100}, k{idle: true, deadline: 1}, true},
		{k{idle: true, deadline: 1}, k{idle: false, deadline: 100}, false},
		// Earlier deadline first, also across zero and far from it.
		{k{deadline: 2}, k{deadline: 5}, true},
		{k{deadline: -3}, k{deadline: 1}, true},
		{k{deadline: 1 << 40}, k{deadline: -1 << 40}, false},
		// Deadline tie: smaller delay bound first.
		{k{deadline: 4, delay: 2}, k{deadline: 4, delay: 8}, true},
		{k{deadline: 4, delay: 1 << 30}, k{deadline: 4, delay: 1<<30 - 1}, false},
		// Full tie: smaller color first.
		{k{deadline: 4, delay: 2, c: 1}, k{deadline: 4, delay: 2, c: 3}, true},
		{k{deadline: 4, delay: 2, c: 1<<22 - 1}, k{deadline: 4, delay: 3, c: 0}, true},
		// Equal keys: not less.
		{k{deadline: 4, delay: 2, c: 1}, k{deadline: 4, delay: 2, c: 1}, false},
	}
	for i, c := range cases {
		ka := edfKey(c.a.idle, c.a.deadline, c.a.delay, c.a.c)
		kb := edfKey(c.b.idle, c.b.deadline, c.b.delay, c.b.c)
		if got := ka.less(kb); got != c.want {
			t.Errorf("case %d: less = %v, want %v", i, got, c.want)
		}
		if ka.color() != c.a.c {
			t.Errorf("case %d: key color %d, want %d", i, ka.color(), c.a.c)
		}
	}
}

// rankHarness runs a one-round scenario through the engine so we get a
// real *sched.Context to rank against.
type rankHarness struct {
	tr     *colorstate.Tracker
	got    []sched.Color
	rank   func(tr *colorstate.Tracker, ctx *sched.Context) []sched.Color
	assign []sched.Color
}

func (h *rankHarness) Name() string { return "rankHarness" }
func (h *rankHarness) Reset(env sched.Env) {
	h.tr = colorstate.NewWithThreshold(env.Delta, 1, env.Delays)
	h.assign = make([]sched.Color, env.N)
	for i := range h.assign {
		h.assign[i] = sched.NoColor
	}
}
func (h *rankHarness) Reconfigure(ctx *sched.Context) []sched.Color {
	if ctx.Mini == 0 && ctx.Round == 0 {
		h.tr.BeginRound(0, func(sched.Color) bool { return false })
		for _, b := range ctx.Arrivals {
			h.tr.OnArrival(0, b.Color, b.Count)
		}
		h.got = h.rank(h.tr, ctx)
	}
	return h.assign
}

func TestRankEligibleOrdersByIdlenessDeadlineDelay(t *testing.T) {
	// Three colors: 0 (D=8, has jobs), 1 (D=2, has jobs), 2 (D=2, no
	// jobs → idle but eligible because we inject an arrival then drain?).
	// Simpler: colors 0,1 have jobs; both eligible. Color 1 has the
	// earlier deadline (D=2 < 8), so it ranks first.
	inst := &sched.Instance{Delta: 1, Delays: []int{8, 2}}
	inst.AddJobs(0, 0, 1)
	inst.AddJobs(0, 1, 1)
	h := &rankHarness{rank: func(tr *colorstate.Tracker, ctx *sched.Context) []sched.Color {
		elig := tr.AppendEligible(nil)
		var r Ranker
		r.RankEligible(elig, tr, ctx)
		return append([]sched.Color(nil), elig...)
	}}
	if _, err := sched.Run(inst, h, sched.Options{N: 1}); err != nil {
		t.Fatal(err)
	}
	if len(h.got) != 2 || h.got[0] != 1 || h.got[1] != 0 {
		t.Fatalf("rank order = %v, want [1 0]", h.got)
	}
}

func TestSortByRecencyPrefersCachedOnTies(t *testing.T) {
	tr := colorstate.NewWithThreshold(1, 1, []int{2, 2, 2})
	tr.BeginRound(0, func(sched.Color) bool { return false })
	for c := sched.Color(0); c < 3; c++ {
		tr.OnArrival(0, c, 1)
	}
	// All timestamps equal (0). Cached-first, then color order.
	cached := func(c sched.Color) bool { return c == 2 }
	cols := []sched.Color{0, 1, 2}
	var r Ranker
	r.SortByRecency(cols, tr, cached)
	if cols[0] != 2 || cols[1] != 0 || cols[2] != 1 {
		t.Fatalf("recency order = %v, want [2 0 1]", cols)
	}
}

// oracleRank and oracleRecency are the comparator sorts the keyed
// Ranker replaced, kept as its test oracle: every comparison reads both
// colors' state afresh.
type oracleRankKey struct {
	idle            bool
	deadline, delay int
	c               sched.Color
}

func (a oracleRankKey) less(b oracleRankKey) bool {
	if a.idle != b.idle {
		return !a.idle
	}
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	return a.c < b.c
}

func oracleRank(colors []sched.Color, tr *colorstate.Tracker, ctx *sched.Context) {
	key := func(c sched.Color) oracleRankKey {
		return oracleRankKey{idle: ctx.Pending(c) == 0, deadline: tr.Get(c).Deadline, delay: tr.Delay(c), c: c}
	}
	slices.SortFunc(colors, func(a, b sched.Color) int {
		ka, kb := key(a), key(b)
		if ka.less(kb) {
			return -1
		}
		if kb.less(ka) {
			return 1
		}
		return 0
	})
}

func oracleRecency(colors []sched.Color, tr *colorstate.Tracker, cached func(sched.Color) bool) {
	slices.SortFunc(colors, func(a, b sched.Color) int {
		if c := cmp.Compare(tr.Get(b).Timestamp, tr.Get(a).Timestamp); c != 0 {
			return c
		}
		if ca, cb := cached(a), cached(b); ca != cb {
			if ca {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
}

// orderHarness drives oracle checks from inside a run, where a real
// *sched.Context reports pending jobs. Every round it rewrites the
// tracker state of a random subset of colors, shuffled out of color
// order, with ties on every key field (few deadlines, timestamps and
// delay bounds, random cached bits, idle and nonidle colors), and
// requires both keyed orders to match their oracles.
type orderHarness struct {
	t      *testing.T
	rng    *rand.Rand
	tr     *colorstate.Tracker
	rank   Ranker
	assign []sched.Color
	cached []bool
	checks int
}

func (h *orderHarness) Name() string { return "orderHarness" }
func (h *orderHarness) Reset(env sched.Env) {
	h.tr = colorstate.New(env.Delta, env.Delays)
	h.assign = make([]sched.Color, env.N)
	for i := range h.assign {
		h.assign[i] = sched.NoColor
	}
	h.cached = make([]bool, len(env.Delays))
}

func (h *orderHarness) Reconfigure(ctx *sched.Context) []sched.Color {
	n := len(h.cached)
	colors := make([]sched.Color, 0, n)
	for _, c := range h.rng.Perm(n) {
		if h.rng.IntN(4) > 0 {
			colors = append(colors, sched.Color(c))
		}
	}
	// Far-off values show the keys keep their order away from zero.
	far := []int{-1 << 40, 1 << 40, math.MinInt64, math.MaxInt64}
	for _, c := range colors {
		st := h.tr.Get(c)
		st.Deadline = ctx.Round + 1 + h.rng.IntN(3)
		st.Timestamp = h.rng.IntN(3)
		if h.rng.IntN(16) == 0 {
			st.Deadline = ctx.Round + far[h.rng.IntN(2)]
			st.Timestamp = far[h.rng.IntN(4)]
		}
		h.cached[c] = h.rng.IntN(2) == 0
	}
	isCached := func(c sched.Color) bool { return h.cached[c] }

	got, want := slices.Clone(colors), slices.Clone(colors)
	h.rank.RankEligible(got, h.tr, ctx)
	oracleRank(want, h.tr, ctx)
	if !slices.Equal(got, want) {
		h.t.Fatalf("round %d: RankEligible(%v) = %v, oracle %v", ctx.Round, colors, got, want)
	}
	got, want = slices.Clone(colors), slices.Clone(colors)
	h.rank.SortByRecency(got, h.tr, isCached)
	oracleRecency(want, h.tr, isCached)
	if !slices.Equal(got, want) {
		h.t.Fatalf("round %d: SortByRecency(%v) = %v, oracle %v", ctx.Round, colors, got, want)
	}
	h.checks++
	return h.assign
}

// TestRankerMatchesComparatorOracle pins the keyed orders to the
// comparator sorts they replaced, over inputs of 0 to 100 colors (so
// sortKeys' path past sortRun keys runs too) with ties on every key
// field.
func TestRankerMatchesComparatorOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		numColors := 1 + rng.IntN(100)
		delays := make([]int, numColors)
		for c := range delays {
			delays[c] = []int{2, 4, 1 << 30}[rng.IntN(3)]
		}
		inst := &sched.Instance{Delta: 1, Delays: delays}
		for r := 0; r < 64; r++ {
			for c := range delays {
				if rng.IntN(3) == 0 {
					inst.AddJobs(r, sched.Color(c), 1+rng.IntN(2))
				}
			}
		}
		h := &orderHarness{t: t, rng: rng}
		if _, err := sched.Run(inst, h, sched.Options{N: 2, MaxRounds: 64}); err != nil {
			t.Fatal(err)
		}
		if h.checks != 64 {
			t.Fatalf("seed %d: %d rounds checked, want 64", seed, h.checks)
		}
	}
}
