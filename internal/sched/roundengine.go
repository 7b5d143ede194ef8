package sched

import (
	"fmt"
	"math"
)

// roundEngine is the single implementation of the model's four-phase
// round semantics (drop → arrival → reconfigure → execute, §2 of the
// paper). Both front-ends drive it — Run for whole recorded instances and
// Stream.Step for the true online setting — so the two cannot diverge:
// Run ≡ Stream is structural, not merely tested. (Replay deliberately
// stays an independent re-implementation; the differential tests compare
// all three.)
//
// Phase accounting rules the engine guarantees:
//
//   - Validate-then-charge: a mini-round's assignment is validated in
//     full (width and every color) before any reconfiguration is charged,
//     so a rejected assignment leaves the running Result untouched.
//   - Per-color breakdowns always sum to the totals: every drop —
//     including forced drops from dropPending — is attributed to its
//     color in DropsByColor.
//
// The engine performs no heap allocation per round once its scratch
// buffers have warmed up, including when a StepResult is requested and
// when no Probe is attached (pinned by TestStepAllocFree and the
// micro-benchmarks in the repository root). This keeps the Stream
// dataplane GC-quiet under sustained load.
type roundEngine struct {
	env       Env
	numColors int
	pol       Policy
	pool      *jobPool
	cur       []Color // current configuration; NoColor = black
	ctx       *Context

	round int    // index of the next round to simulate
	res   Result // running totals (Schedule stays nil; Run attaches it)
	sched *Schedule

	dropObs   DropObserver
	execObs   ExecObserver
	probe     Probe
	execProbe ExecProbe

	// Per-round scratch, reused across steps so the steady state does not
	// allocate. dropFn is e.onDrop bound once: passing a fresh method
	// value to pool.expire every round would allocate a closure.
	dropFn      func(c Color, n int)
	collect     bool // building a StepResult this step
	forced      bool // inside dropPending: account only, no observers
	roundDrops  int
	dropBatches []Batch
	execBatches []Batch
}

// newRoundEngine prepares an engine for a fresh run: it resets the policy
// in env and starts from the all-black configuration with an empty pool.
func newRoundEngine(pol Policy, env Env, probe Probe) *roundEngine {
	pol.Reset(env)
	e := &roundEngine{
		env:       env,
		numColors: len(env.Delays),
		pol:       pol,
		pool:      newJobPool(len(env.Delays)),
		cur:       make([]Color, env.N),
		res: Result{
			Policy:       pol.Name(),
			DropsByColor: make([]int, len(env.Delays)),
			ExecByColor:  make([]int, len(env.Delays)),
		},
		probe: probe,
	}
	for i := range e.cur {
		e.cur[i] = NoColor
	}
	e.ctx = &Context{env: env, pool: e.pool}
	e.dropObs, _ = pol.(DropObserver)
	e.execObs, _ = pol.(ExecObserver)
	if probe != nil {
		e.execProbe, _ = probe.(ExecProbe)
	}
	e.dropFn = e.onDrop
	return e
}

// onDrop is the pool.expire callback: it attributes the drop per color,
// charges it, and notifies the policy's DropObserver (except for forced
// drops, which happen outside any round).
func (e *roundEngine) onDrop(c Color, n int) {
	e.res.DropsByColor[c] += n
	e.res.Dropped += n
	e.res.Cost.Drop += int64(n)
	if e.forced {
		return
	}
	e.roundDrops += n
	if e.collect {
		e.dropBatches = append(e.dropBatches, Batch{Color: c, Count: n})
	}
	if e.dropObs != nil {
		e.dropObs.OnDrop(e.round, c, n)
	}
}

// step simulates one round. arrivals must already be validated and
// normalized (sorted by color, one batch per color): Run normalizes the
// whole instance up front, Stream.Step and Stream.Advance normalize each
// batch into the stream's scratch buffer. When out is non-nil the
// per-round report is filled in; its slices alias engine-owned scratch
// that is overwritten by the next step. When it is nil (Run and
// Stream.Advance) no report is built.
func (e *roundEngine) step(arrivals Request, out *StepResult) error {
	r := e.round

	// Phase 1: drop.
	e.roundDrops = 0
	e.collect = out != nil
	e.dropBatches = e.dropBatches[:0]
	e.execBatches = e.execBatches[:0]
	e.pool.expire(r, e.dropFn)

	// Phase 2: arrival.
	arrived := 0
	for _, b := range arrivals {
		e.pool.add(b.Color, r+e.env.Delays[b.Color], b.Count)
		arrived += b.Count
	}

	// Phases 3+4, repeated per mini-round.
	e.ctx.Round = r
	e.ctx.Arrivals = arrivals
	roundExecs, roundReconfigs := 0, 0
	for mini := 0; mini < e.env.Speed; mini++ {
		e.ctx.Mini = mini
		assign := e.pol.Reconfigure(e.ctx)
		// Validate the complete assignment before charging anything, so a
		// rejected assignment leaves the running Result untouched.
		if len(assign) != e.env.N {
			return fmt.Errorf("sched: policy %s returned assignment of length %d, want %d",
				e.pol.Name(), len(assign), e.env.N)
		}
		for _, c := range assign {
			if c != NoColor && (c < 0 || int(c) >= e.numColors) {
				return fmt.Errorf("sched: policy %s assigned unknown color %d", e.pol.Name(), c)
			}
		}
		for k := 0; k < e.env.N; k++ {
			if assign[k] != e.cur[k] {
				e.res.Reconfigs++
				e.res.Cost.Reconfig += int64(e.env.Delta)
				roundReconfigs++
				e.cur[k] = assign[k]
			}
		}
		if e.sched != nil {
			e.sched.Assign = append(e.sched.Assign, append([]Color(nil), e.cur...))
		}
		// Phase 4: execution. Locations are served in index order, which
		// matters when two locations share a color with a single pending
		// job; the Replay validator replays the same order.
		for k := 0; k < e.env.N; k++ {
			c := e.cur[k]
			if c == NoColor {
				continue
			}
			deadline, ok := e.pool.take(c)
			if !ok {
				continue
			}
			e.res.Executed++
			e.res.ExecByColor[c]++
			roundExecs++
			if e.collect {
				e.noteExec(c)
			}
			if e.execObs != nil {
				e.execObs.OnExec(r, mini, c, 1)
			}
			if e.execProbe != nil {
				// deadline = arrival + D_c, so the job waited r − arrival
				// = r − deadline + D_c rounds.
				e.execProbe.OnJobExec(r, c, r-deadline+e.env.Delays[c])
			}
		}
	}

	e.round = r + 1
	e.res.Rounds = e.round
	if out != nil {
		out.Round = r
		// Drops arrive in heap (deadline) order and executions in location
		// order; canonicalize both to the sorted-by-color form the
		// StepResult contract promises. normalizeRequest sorts in place.
		e.dropBatches = normalizeRequest(e.dropBatches)
		e.execBatches = normalizeRequest(e.execBatches)
		out.Dropped = e.dropBatches
		out.Executed = e.execBatches
		out.Reconfigs = roundReconfigs
		out.Assignment = e.cur
	}
	if e.probe != nil {
		e.probe.OnRound(RoundEvent{
			Round:     r,
			Arrivals:  arrived,
			Dropped:   e.roundDrops,
			Executed:  roundExecs,
			Reconfigs: roundReconfigs,
			Pending:   e.pool.totalPending(),
		})
	}
	return nil
}

// noteExec merges one execution of color c into the per-round report.
// A linear scan suffices: a round executes at most N·Speed jobs, and
// consecutive executions of the same color hit the first probe.
func (e *roundEngine) noteExec(c Color) {
	for i := len(e.execBatches) - 1; i >= 0; i-- {
		if e.execBatches[i].Color == c {
			e.execBatches[i].Count++
			return
		}
	}
	e.execBatches = append(e.execBatches, Batch{Color: c, Count: 1})
}

// dropPending force-drops every job still pending, attributing the drops
// per color exactly like the round drop phase. Run applies it when
// Options.MaxRounds truncates a simulation; Stream exposes it as
// DropPending. No round is simulated and the policy's DropObserver is
// not notified — the jobs are charged by fiat — but an attached Probe
// does receive the forced drops as one final RoundEvent (Round set to
// the next unsimulated round, only Dropped non-zero), so probe totals
// keep matching the Result instead of silently losing the truncation
// drops.
func (e *roundEngine) dropPending() int {
	if e.pool.totalPending() == 0 {
		return 0
	}
	e.forced = true
	n := e.pool.expire(math.MaxInt, e.dropFn)
	e.forced = false
	if e.probe != nil {
		e.probe.OnRound(RoundEvent{Round: e.round, Dropped: n})
	}
	return n
}

// snapshot returns a copy of the running totals that is safe to retain
// across further steps.
func (e *roundEngine) snapshot() *Result {
	res := e.res
	res.DropsByColor = append([]int(nil), res.DropsByColor...)
	res.ExecByColor = append([]int(nil), res.ExecByColor...)
	return &res
}
