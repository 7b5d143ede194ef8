package policy

import (
	"fmt"
	"slices"

	"repro/internal/sched"
)

// Static holds a fixed color assignment for the whole run: each of the
// given colors occupies one location (colors may repeat to replicate). It
// is the natural "no reconfiguration after warm-up" baseline; with the
// right color choice it is what OFF plays in the Appendix A construction.
type Static struct {
	colors []sched.Color
	assign []sched.Color
}

// NewStatic returns a policy that configures the given colors in round 0
// and never reconfigures again. If fewer colors than locations are given,
// the remaining locations stay black.
func NewStatic(colors ...sched.Color) *Static {
	return &Static{colors: colors}
}

// Name implements sched.Policy.
func (s *Static) Name() string { return fmt.Sprintf("Static%v", s.colors) }

// Reset implements sched.Policy.
func (s *Static) Reset(env sched.Env) {
	if len(s.colors) > env.N {
		panic(fmt.Sprintf("policy: Static given %d colors for %d locations", len(s.colors), env.N))
	}
	s.assign = make([]sched.Color, env.N)
	for i := range s.assign {
		if i < len(s.colors) {
			s.assign[i] = s.colors[i]
		} else {
			s.assign[i] = sched.NoColor
		}
	}
}

// Reconfigure implements sched.Policy.
func (s *Static) Reconfigure(*sched.Context) []sched.Color { return s.assign }

// Never keeps every resource black forever, dropping every job. Its cost
// equals the total number of jobs; it upper-bounds every sane policy and
// anchors "how bad can it get" rows in experiment tables.
type Never struct{ assign []sched.Color }

// NewNever returns the drop-everything policy.
func NewNever() *Never { return &Never{} }

// Name implements sched.Policy.
func (n *Never) Name() string { return "Never" }

// Reset implements sched.Policy.
func (n *Never) Reset(env sched.Env) {
	n.assign = make([]sched.Color, env.N)
	for i := range n.assign {
		n.assign[i] = sched.NoColor
	}
}

// Reconfigure implements sched.Policy.
func (n *Never) Reconfigure(*sched.Context) []sched.Color { return n.assign }

// GreedyPending reconfigures every round to the colors with the most
// pending jobs, with no hysteresis at all. It is the canonical thrashing
// baseline from the introduction: maximal utilization, unbounded
// reconfiguration cost.
type GreedyPending struct {
	env     sched.Env
	cache   *Cache
	scratch []sched.Color
}

// NewGreedyPending returns the maximally eager baseline.
func NewGreedyPending() *GreedyPending { return &GreedyPending{} }

// Name implements sched.Policy.
func (g *GreedyPending) Name() string { return "GreedyPending" }

// Reset implements sched.Policy.
func (g *GreedyPending) Reset(env sched.Env) {
	g.env = env
	g.cache = NewCache(env.N, len(env.Delays), false)
}

// Reconfigure implements sched.Policy.
func (g *GreedyPending) Reconfigure(ctx *sched.Context) []sched.Color {
	cand := ctx.NonidleColors(g.scratch[:0])
	slices.SortFunc(cand, func(a, b sched.Color) int {
		pa, pb := ctx.Pending(a), ctx.Pending(b)
		if pa != pb {
			return pb - pa // descending backlog
		}
		return int(a) - int(b)
	})
	if len(cand) > g.cache.Capacity() {
		cand = cand[:g.cache.Capacity()]
	}
	SyncCacheToSet(g.cache, cand)
	g.scratch = cand[:0]
	return g.cache.Assignment()
}
