package sched

// Options configures a simulation run.
type Options struct {
	// N is the number of resources given to the policy. Must be ≥ 1.
	N int
	// Speed is the number of (reconfiguration, execution) mini-rounds per
	// round. 0 or 1 means uni-speed; DS-Seq-EDF runs at 2 (§3.3).
	Speed int
	// Record captures the produced schedule in Result.Schedule so it can
	// be validated or transformed (used by the reductions of §4–§5).
	Record bool
	// MaxRounds caps the simulation as a safety net; 0 means the instance
	// horizon (NumRounds + MaxDelay), which always suffices. Jobs still
	// pending at the cap are charged as drops, attributed per color.
	MaxRounds int
	// Probe, when non-nil, receives one RoundEvent per simulated round
	// (see Probe). Leaving it nil costs nothing.
	Probe Probe
}

// Run simulates policy pol on instance inst and returns the cost and
// statistics. The instance is normalized in place (batches sorted and
// merged per round), which is idempotent and does not change its meaning.
// The configuration is checked as NewStream checks it: an N, Speed or
// delay bound out of range, or an environment the policy cannot run, is
// a *ConfigError.
//
// Run and Stream.Step drive the same roundEngine, so a recorded instance
// fed through either front-end produces the identical Result; the
// equivalence is additionally pinned by a randomized differential test.
func Run(inst *Instance, pol Policy, opts Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	env, err := checkEnv(pol, StreamConfig{N: opts.N, Speed: opts.Speed, Delta: inst.Delta, Delays: inst.Delays})
	if err != nil {
		return nil, err
	}
	inst.Normalize()

	e := newRoundEngine(pol, env, opts.Probe)
	if opts.Record {
		e.sched = &Schedule{Policy: pol.Name(), N: env.N, Speed: env.Speed}
	}

	horizon := inst.Horizon()
	if opts.MaxRounds > 0 && opts.MaxRounds < horizon {
		horizon = opts.MaxRounds
	}
	for r := 0; r < horizon; r++ {
		if r >= inst.NumRounds() && e.pool.totalPending() == 0 {
			break
		}
		var req Request
		if r < inst.NumRounds() {
			req = inst.Requests[r]
		}
		if err := e.step(req, nil); err != nil {
			return nil, err
		}
	}

	// Anything still pending at the horizon would be dropped in later
	// rounds; the horizon covers NumRounds+MaxDelay so this only triggers
	// when MaxRounds cut the run short. Charge those drops — with their
	// per-color attribution, so the breakdown keeps summing to the total —
	// for honesty.
	e.dropPending()

	res := e.res
	res.Schedule = e.sched
	return &res, nil
}
