package sched

import (
	"fmt"

	"repro/internal/snap"
)

// StreamConfig configures a Stream.
type StreamConfig struct {
	// N is the number of resources; Speed the mini-rounds per round
	// (0 or 1 = uni-speed).
	N     int
	Speed int
	// Delta is the reconfiguration cost Δ and Delays the per-color delay
	// bounds; together they fix the color universe up front.
	Delta  int
	Delays []int
	// Probe, when non-nil, receives one RoundEvent per Step (see Probe).
	// Leaving it nil costs nothing.
	Probe Probe
}

// Stream drives a policy one round at a time for callers that do not have
// the whole request sequence up front — the true online setting (a router
// dataplane handing over each round's packet arrivals, a cluster manager
// reporting demand). Each Step performs the model's four phases for one
// round and reports what happened; Drain runs empty rounds until nothing
// is pending.
//
// A Stream and a Run over the same arrivals produce identical Results by
// construction: both front-ends drive the same roundEngine. A randomized
// differential test additionally pins the equivalence against Replay.
type Stream struct {
	cfg     StreamConfig
	eng     *roundEngine
	scratch Request

	// snapEnc is AppendSnapshot's retained encoder, so repeated
	// snapshots reuse one backing buffer.
	snapEnc snap.Encoder
}

// StepResult reports one round of a Stream.
//
// Footgun warning: the slice fields (Dropped, Executed, Assignment) share
// backing arrays that the Stream reuses on every Step — that is what
// keeps the steady-state step allocation-free. A StepResult is therefore
// only valid until the next Step; retaining one across Steps (appending
// it to a history, sending it to another goroutine) silently yields the
// later round's data. Call Clone on any result you keep.
type StepResult struct {
	// Round is the round index that was just simulated.
	Round int
	// Dropped and Executed list the jobs dropped and executed this round,
	// grouped per color (entries sorted by color). Like Assignment, the
	// backing arrays are reused across Steps — Clone the result to retain
	// them.
	Dropped  []Batch
	Executed []Batch
	// Reconfigs counts location recolorings performed this round.
	Reconfigs int
	// Assignment is the configuration at the end of the round; the
	// backing array is reused across Steps — Clone the result to retain
	// it.
	Assignment []Color
}

// Clone returns a deep copy whose slices do not alias the Stream's
// reusable buffers, safe to retain across Steps or hand to another
// goroutine. Cloning is the explicit opt-in to allocation: the Step hot
// path itself stays allocation-free.
func (r StepResult) Clone() StepResult {
	r.Dropped = append([]Batch(nil), r.Dropped...)
	r.Executed = append([]Batch(nil), r.Executed...)
	r.Assignment = append([]Color(nil), r.Assignment...)
	return r
}

// Caps on a stream's configuration. They bound a tenant's memory and
// its per-round work, and let a corrupt snapshot fail before
// RestoreStream attempts an absurd allocation. maxDelay also keeps
// every deadline r + D_c the engine forms far from overflow at any
// round a stream can reach. maxCount caps one batch of arrivals
// (ValidateRequest), so merging a tick's batches of one color cannot
// overflow: that would take 2³³ batches, far more than a 4 MiB wire
// frame or any real memory holds. Real deployments sit orders of
// magnitude below all five.
const (
	maxN      = 1 << 22
	maxSpeed  = 1 << 12
	maxColors = 1 << 22
	maxDelay  = 1 << 30
	maxCount  = 1 << 30
)

// checkConfig checks every field of cfg against its range: N, Speed,
// Delta and each delay bound at least 1, and N, Speed, the number of
// colors and each delay bound at most their caps. NewStream and the
// snapshot header decoder both call it.
func checkConfig(cfg StreamConfig) error {
	switch {
	case cfg.N < 1 || cfg.N > maxN:
		return outOfRange("N", -1, cfg.N, maxN)
	case cfg.Speed < 1 || cfg.Speed > maxSpeed:
		return outOfRange("Speed", -1, cfg.Speed, maxSpeed)
	case cfg.Delta < 1:
		return &ConfigError{Field: "Delta", Color: -1, Value: cfg.Delta, Want: "≥ 1"}
	case len(cfg.Delays) > maxColors:
		return &ConfigError{Field: "Delays", Color: -1, Value: len(cfg.Delays), Want: fmt.Sprintf("at most %d", maxColors)}
	}
	for c, d := range cfg.Delays {
		if d < 1 || d > maxDelay {
			return outOfRange("Delays", Color(c), d, maxDelay)
		}
	}
	return nil
}

// outOfRange is the ConfigError for a value outside [1, limit].
func outOfRange(field string, c Color, v, limit int) *ConfigError {
	return &ConfigError{Field: field, Color: c, Value: v, Want: fmt.Sprintf("in [1, %d]", limit)}
}

// checkEnv checks cfg (checkConfig, then the policy's EnvChecker, if it
// has one) and returns the environment pol will run in. Speed 0 selects
// 1. NewStream and Run both call it, so a configuration the engine or
// the policy cannot run is a *ConfigError on either front-end, never a
// panic in Reset.
func checkEnv(pol Policy, cfg StreamConfig) (Env, error) {
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	if err := checkConfig(cfg); err != nil {
		return Env{}, err
	}
	env := Env{N: cfg.N, Speed: cfg.Speed, Delta: cfg.Delta, Delays: cfg.Delays}
	if ec, ok := pol.(EnvChecker); ok {
		if err := ec.CheckEnv(env); err != nil {
			return Env{}, err
		}
	}
	return env, nil
}

// NewStream validates the configuration (see checkEnv) and prepares a
// stream. Speed 0 selects 1.
func NewStream(pol Policy, cfg StreamConfig) (*Stream, error) {
	env, err := checkEnv(pol, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Speed = env.Speed
	return &Stream{cfg: cfg, eng: newRoundEngine(pol, env, cfg.Probe)}, nil
}

// Round reports the index of the next round Step will simulate.
func (s *Stream) Round() int { return s.eng.round }

// Cost reports the cumulative cost so far.
func (s *Stream) Cost() Cost { return s.eng.res.Cost }

// Pending reports the pending jobs of color c.
func (s *Stream) Pending(c Color) int { return s.eng.pool.pending(c) }

// TotalPending reports all pending jobs.
func (s *Stream) TotalPending() int { return s.eng.pool.totalPending() }

// Executed and Dropped report cumulative totals.
func (s *Stream) Executed() int { return s.eng.res.Executed }

// Dropped reports the cumulative dropped-job count.
func (s *Stream) Dropped() int { return s.eng.res.Dropped }

// Reconfigs reports the cumulative number of location recolorings.
func (s *Stream) Reconfigs() int { return s.eng.res.Reconfigs }

// NumColors reports the size of the stream's color universe.
func (s *Stream) NumColors() int { return len(s.cfg.Delays) }

// Step simulates one round with the given arrivals. Batches must name
// declared colors with counts in [1, 2³⁰]; they need not be sorted or
// deduplicated — Step normalizes a scratch copy exactly the way Run's
// Instance.Normalize would, so a policy sees identical arrivals under
// both front-ends. Structurally invalid arrivals (out-of-range colors,
// counts outside that range) are rejected with an *ArrivalError before
// the engine sees them; the stream is left untouched and may keep
// stepping.
// The returned StepResult's slices are reused across Steps; call
// StepResult.Clone to retain one (see the StepResult doc).
func (s *Stream) Step(arrivals Request) (StepResult, error) {
	req, err := s.normalize(arrivals)
	if err != nil {
		return StepResult{}, err
	}
	var out StepResult
	if err := s.eng.step(req, &out); err != nil {
		return StepResult{}, err
	}
	return out, nil
}

// Advance is Step without the per-round report: it validates and
// normalizes the arrivals the same way and simulates the same round,
// but skips building the StepResult. A caller that reads only the
// running totals (Result, Cost, TotalPending) or a snapshot should use
// it; every decision, total and snapshot byte is the same as Step's.
func (s *Stream) Advance(arrivals Request) error {
	req, err := s.normalize(arrivals)
	if err != nil {
		return err
	}
	return s.eng.step(req, nil)
}

// normalize validates arrivals and returns them normalized in the
// stream's scratch buffer.
func (s *Stream) normalize(arrivals Request) (Request, error) {
	if err := ValidateRequest(arrivals, len(s.cfg.Delays)); err != nil {
		return nil, err
	}
	s.scratch = normalizeRequest(append(s.scratch[:0], arrivals...))
	return s.scratch, nil
}

// Drain runs empty rounds until no job is pending and returns the number
// of rounds it took. Call it at the end of a trace so every job is
// properly executed or charged as a drop.
func (s *Stream) Drain() (rounds int, err error) {
	for s.eng.pool.totalPending() > 0 {
		if err := s.Advance(nil); err != nil {
			return rounds, err
		}
		rounds++
	}
	return rounds, nil
}

// DropPending force-drops every job still pending, charging each as a
// drop with per-color attribution — the same accounting Run applies when
// Options.MaxRounds truncates a simulation. Use it instead of Drain when
// tearing a stream down early. It returns the number of jobs charged.
// The policy is not notified (no round is simulated), but an attached
// Probe receives the forced drops as one final RoundEvent with only
// Dropped set, so sink totals stay consistent with Result.
func (s *Stream) DropPending() int { return s.eng.dropPending() }

// Result summarizes the stream so far in the same shape Run returns. The
// returned value is a snapshot; it is not affected by further Steps.
func (s *Stream) Result() *Result { return s.eng.snapshot() }
