package sched

// Env describes the fixed parameters a policy sees when a run starts.
type Env struct {
	// N is the number of resources (cache locations) given to the policy.
	N int
	// Speed is the number of mini-rounds per round: 1 for uni-speed
	// algorithms, 2 for double-speed algorithms such as DS-Seq-EDF (§3.3).
	Speed int
	// Delta is the reconfiguration cost Δ.
	Delta int
	// Delays[c] is the delay bound of color c.
	Delays []int
}

// Policy is an online reconfiguration scheme. The engine drives it through
// the four phases of every round: after the drop and arrival phases have
// been applied to the pending-job state, Reconfigure is called once per
// mini-round and returns the desired assignment of colors to the N
// locations; the engine then charges Δ for every location whose color
// changed and runs the execution phase.
//
// Policies are online: Context exposes only the current round's arrivals
// and the current pending state, never future requests.
type Policy interface {
	// Name identifies the policy in results and experiment tables.
	Name() string
	// Reset prepares the policy for a fresh run in the given environment.
	Reset(env Env)
	// Reconfigure returns the assignment for this mini-round: a slice of
	// length env.N whose entry k is the color of location k (NoColor for
	// an unconfigured location). The engine copies the slice; policies may
	// reuse the backing array across calls.
	Reconfigure(ctx *Context) []Color
}

// EnvChecker is implemented by a policy that runs only in some
// environments — ΔLRU-EDF needs n divisible by 4, say. NewStream calls
// CheckEnv before Reset and returns its error, so an environment the
// policy cannot run is refused as a configuration error instead of
// panicking in Reset.
type EnvChecker interface {
	CheckEnv(env Env) error
}

// DropObserver is implemented by policies that need to see the drop phase
// (ΔLRU-EDF classifies drops into eligible and ineligible ones, §3.2).
// OnDrop is invoked during the drop phase of round for each color that
// lost jobs, before Reconfigure.
type DropObserver interface {
	OnDrop(round int, c Color, count int)
}

// ExecObserver is implemented by policies that track executions (used by
// instrumentation and by concurrently-compared runs in tests).
type ExecObserver interface {
	OnExec(round, mini int, c Color, count int)
}

// Context is the read-only view a policy gets each mini-round.
type Context struct {
	// Round is the current round index; Mini the mini-round within it
	// (always 0 for uni-speed runs).
	Round int
	Mini  int
	// Arrivals is the request received this round (normalized: sorted by
	// color, one batch per color). It is identical across the round's
	// mini-rounds.
	Arrivals Request

	env  Env
	pool *jobPool
}

// Env returns the run environment.
func (c *Context) Env() Env { return c.env }

// Pending reports the number of pending jobs of color col.
func (c *Context) Pending(col Color) int { return c.pool.pending(col) }

// EarliestDeadline reports the earliest deadline among pending jobs of
// color col; ok is false if the color is idle.
func (c *Context) EarliestDeadline(col Color) (deadline int, ok bool) {
	return c.pool.earliestDeadline(col)
}

// TotalPending reports the number of pending jobs across all colors.
func (c *Context) TotalPending() int { return c.pool.totalPending() }

// NonidleColors appends the colors that currently have pending jobs to
// dst and returns it, in increasing color order.
func (c *Context) NonidleColors(dst []Color) []Color {
	return c.pool.nonidle(dst)
}
