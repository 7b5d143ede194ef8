package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
)

// verify drains every tenant and requires its Result to be bit-identical
// to a local replay of the exact looped round sequence the server
// admitted. With resume set (after a durable restart), it first re-feeds
// each tenant from its resume sequence up to the rounds admitted before
// the crash.
func (r *run) verify(c *benchConn, resume []int) error {
	want := make([]int, len(r.tenants))
	for i, t := range r.tenants {
		want[i] = t.next
	}
	if resume != nil {
		for i, t := range r.tenants {
			if resume[i] > want[i] {
				r.problem("%s resumed at round %d, past the %d rounds admitted", t.id, resume[i], want[i])
				continue
			}
			for t.next = resume[i]; t.next < want[i]; {
				if _, err := c.submit(t); err != nil {
					return err
				}
				r.out.Info["recovery.refed_rounds"]++
			}
		}
	}
	got := make([]*sched.Result, len(r.tenants))
	for i, t := range r.tenants {
		res, err := c.drain(t)
		if err != nil {
			return err
		}
		got[i] = res
	}
	refs, stepNS, err := replayAll(r.tenants, want)
	if err != nil {
		return err
	}
	r.stepNS = append(r.stepNS, stepNS...)
	for i, t := range r.tenants {
		if !sameResult(got[i], refs[i]) {
			r.problem("%s: server result %v differs from local replay %v", t.id, got[i], refs[i])
		}
		r.cost += refs[i].Cost.Total()
		r.costRounds += int64(want[i])
	}
	return nil
}

// checkVictims reads the BDR guarantee off the stats rows of a
// skewed_bdr cycle: the reserved victims' delay factor high-water mark,
// reported as worst_delay_factor, should stay within maxVictimDF. It is
// counted, and warned about, but does not fail the run: the guarantee
// holds only while the server gets the CPU for every 200 µs pass, and a
// stall of the shared host breaks that (README.md, sandbox caveats).
func (r *run) checkVictims(rows []serve.TenantStats) {
	worst, who := 0.0, ""
	for _, row := range rows {
		if row.ReservedRate > 0 && row.MaxDelayFactor > worst {
			worst, who = row.MaxDelayFactor, row.ID
		}
	}
	r.out.Info["worst_delay_factor"] = max(r.out.Info["worst_delay_factor"], worst)
	if worst > maxVictimDF {
		r.out.Info["delay_bound_misses"]++
		r.cfg.logf("%s: warning: reserved victim %s reached delay factor %.3f, above the guaranteed %.1f",
			r.w.name, who, worst, maxVictimDF)
	}
}

// replayAll replays every tenant's first want[i] rounds on GOMAXPROCS
// workers and returns the drained Results plus the replay's ns per
// round, one sample per stepChunk rounds.
func replayAll(tenants []*tenant, want []int) ([]*sched.Result, []float64, error) {
	type out struct {
		i   int
		res *sched.Result
		ns  []float64
		err error
	}
	work := make(chan int, len(tenants)) // holds every index, so the sends never block
	for i := range tenants {
		work <- i
	}
	close(work)
	outs := make(chan out, len(tenants)) // one result per tenant, so workers never block
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		go func() {
			for i := range work {
				res, ns, err := replay(tenants[i], want[i])
				outs <- out{i, res, ns, err}
			}
		}()
	}
	refs := make([]*sched.Result, len(tenants))
	var ns []float64
	var firstErr error
	for range tenants {
		o := <-outs
		refs[o.i] = o.res
		ns = append(ns, o.ns...)
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	return refs, ns, firstErr
}

// stepChunk is the replay's timing granularity: one sample per this many
// rounds keeps the sample memory bounded.
const stepChunk = 256

// replay steps a fresh local stream through rounds [0, n) of t's looped
// trace, drains it, and returns the Result with the ns per round of each
// full chunk.
func replay(t *tenant, n int) (*sched.Result, []float64, error) {
	pol, err := serve.NewPolicy(policySpec)
	if err != nil {
		return nil, nil, err
	}
	st, err := sched.NewStream(pol, sched.StreamConfig{N: resources, Delta: t.tc.Delta, Delays: t.tc.Delays})
	if err != nil {
		return nil, nil, err
	}
	var ns []float64
	for k0 := 0; k0 < n; k0 += stepChunk {
		t0 := time.Now()
		k1 := min(k0+stepChunk, n)
		for k := k0; k < k1; k++ {
			if _, err := st.Step(t.tick(k)); err != nil {
				return nil, nil, fmt.Errorf("replaying %s round %d: %w", t.id, k, err)
			}
		}
		if k1-k0 == stepChunk {
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/stepChunk)
		}
	}
	if _, err := st.Drain(); err != nil {
		return nil, nil, err
	}
	return st.Result(), ns, nil
}

// sameResult compares every field the wire carries.
func sameResult(a, b *sched.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Policy == b.Policy && a.Cost == b.Cost && a.Executed == b.Executed &&
		a.Dropped == b.Dropped && a.Reconfigs == b.Reconfigs && a.Rounds == b.Rounds &&
		slices.Equal(a.DropsByColor, b.DropsByColor) && slices.Equal(a.ExecByColor, b.ExecByColor)
}
