package offline

import (
	"sort"

	"repro/internal/policy"
	"repro/internal/sched"
)

// BestStaticColors picks m colors for a static configuration by total job
// volume (ties broken by color index). It is the natural offline warm-up
// for the Static baseline: configure once, never reconfigure.
func BestStaticColors(inst *sched.Instance, m int) []sched.Color {
	per := inst.JobsPerColor()
	order := make([]sched.Color, 0, len(per))
	for c, jobs := range per {
		if jobs > 0 {
			order = append(order, sched.Color(c))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if per[order[i]] != per[order[j]] {
			return per[order[i]] > per[order[j]]
		}
		return order[i] < order[j]
	})
	if len(order) > m {
		order = order[:m]
	}
	return order
}

// StaticCost evaluates the cost of statically configuring the given colors
// for the whole run with one location each.
func StaticCost(inst *sched.Instance, colors []sched.Color, m int) (*sched.Result, error) {
	return sched.Run(inst, policy.NewStatic(colors...), sched.Options{N: m})
}
