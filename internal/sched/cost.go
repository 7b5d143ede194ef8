package sched

import "fmt"

// Cost is the two-part objective of the model: reconfiguration cost
// (Δ per recoloring) plus drop cost (1 per dropped job).
type Cost struct {
	Reconfig int64
	Drop     int64
}

// Total returns Reconfig + Drop.
func (c Cost) Total() int64 { return c.Reconfig + c.Drop }

// Add returns the component-wise sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{Reconfig: c.Reconfig + o.Reconfig, Drop: c.Drop + o.Drop}
}

// String formats the cost as "total (reconfig=…, drop=…)".
func (c Cost) String() string {
	return fmt.Sprintf("%d (reconfig=%d, drop=%d)", c.Total(), c.Reconfig, c.Drop)
}

// Result aggregates everything a simulation run produces.
type Result struct {
	// Policy is the name of the policy that produced the run.
	Policy string
	// Cost is the total objective value.
	Cost Cost
	// Executed and Dropped count jobs over the whole run.
	Executed int
	Dropped  int
	// Reconfigs counts individual resource recolorings (cost Reconfigs·Δ).
	Reconfigs int
	// Rounds is the number of rounds simulated (instance rounds plus the
	// drain tail).
	Rounds int
	// DropsByColor[c] and ExecByColor[c] break the totals down per color.
	DropsByColor []int
	ExecByColor  []int
	// Schedule is the recorded schedule when Options.Record was set.
	Schedule *Schedule
}

// String gives a one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s: cost=%s executed=%d dropped=%d reconfigs=%d rounds=%d",
		r.Policy, r.Cost, r.Executed, r.Dropped, r.Reconfigs, r.Rounds)
}
