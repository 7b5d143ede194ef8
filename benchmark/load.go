package main

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
)

// idleTimeout bounds how long the benchmark waits for the servers to
// apply everything admitted.
const idleTimeout = 60 * time.Second

// maxSnaps bounds the stats responses kept for the allocator and BDR
// timings; every snapEvery-th response is kept.
const (
	maxSnaps  = 64
	snapEvery = 8
)

// readerOut is what the stats reader collected.
type readerOut struct {
	lat, late []time.Duration
	snaps     [][]serve.TenantStats
	err       error
}

// readStats is the stats reader: a closed loop of Stats("") calls with
// statsThink of think time after each, until stop closes or, when until
// is not zero, until that time, making at least one call. late records
// how much later than asked each think time ended.
func readStats(c *benchConn, stop <-chan struct{}, until time.Time, out *readerOut) {
	for calls := 0; ; calls++ {
		now := time.Now()
		if calls > 0 && !until.IsZero() && !now.Before(until) {
			return
		}
		rows, err := c.stats()
		if err != nil {
			out.err = err
			return
		}
		done := time.Now()
		out.lat = append(out.lat, done.Sub(now))
		if calls%snapEvery == 0 && len(out.snaps) < maxSnaps {
			out.snaps = append(out.snaps, rows)
		}
		think := statsThink
		if !until.IsZero() {
			think = min(think, until.Sub(done))
		}
		if think <= 0 {
			continue
		}
		wake := done.Add(think)
		timer := time.NewTimer(think)
		select {
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
			out.late = append(out.late, time.Since(wake))
		}
	}
}

func (r *run) merge(k int, o *readerOut) error {
	r.statsLat[k] = append(r.statsLat[k], o.lat...)
	r.late = append(r.late, o.late...)
	r.snaps = append(r.snaps, o.snaps...)
	return o.err
}

// measurePhases runs cycle k's phase A on the first connection with the
// stats reader beside it on the second, so reads sit beside writes, then
// its phase B alone; the phases split d evenly.
func (r *run) measurePhases(k int, d time.Duration) error {
	stop := make(chan struct{})
	done := make(chan *readerOut, 1)
	go func() {
		o := &readerOut{}
		readStats(r.conns[1], stop, time.Time{}, o)
		done <- o
	}()
	err := r.phaseA(r.conns[0], k, d/2)
	close(stop)
	if rerr := r.merge(k, <-done); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	return r.phaseB(r.conns[0], k, d-d/2)
}

// phaseA is the strict closed loop: one submit at a time, round-robin
// over the tenants, for d. The wire and admission path dominate it. In a
// traced run the first half runs with recording off, which gives the
// tracing overhead.
func (r *run) phaseA(c *benchConn, k int, d time.Duration) error {
	start := time.Now()
	end, tracedFrom := start.Add(d), start.Add(d/2)
	for now := start; now.Before(end); now = time.Now() {
		traced := c.rec != nil && !now.Before(tracedFrom)
		if c.rec != nil {
			c.rec.on = traced
		}
		for _, t := range r.tenants {
			t0 := time.Now()
			depth, err := c.submit(t)
			lat := time.Since(t0)
			if err != nil {
				return err
			}
			if traced {
				r.submitLatTraced = append(r.submitLatTraced, lat)
			} else {
				r.submitLat[k] = append(r.submitLat[k], lat)
			}
			r.depths = append(r.depths, float64(depth))
		}
	}
	if c.rec != nil {
		c.rec.on = true
	}
	return nil
}

// wireMark is a recorder's wire counters at one instant.
type wireMark struct{ bytes, writes int64 }

func mark(c *benchConn) wireMark {
	if c.rec == nil {
		return wireMark{}
	}
	return wireMark{c.rec.bytesOut + c.rec.bytesIn, c.rec.writes}
}

// addWire accounts a pipelined stretch: its bytes, conn writes and frames.
func (r *run) addWire(c *benchConn, from wireMark, frames int64) {
	to := mark(c)
	r.bytesB += to.bytes - from.bytes
	r.writesB += to.writes - from.writes
	r.framesB += frames
}

// pipeline returns a pipeline on c whose ack callback hands every ack to
// track, when not nil, and turns any rejection into *failed.
func (r *run) pipeline(c *benchConn, window int, track func(serve.SubmitResult), failed *error) *serve.Pipeline {
	return c.cl.NewPipeline(window, func(a serve.SubmitResult) {
		if track != nil {
			track(a)
		}
		if (a.Err != nil || a.Admitted != a.Rounds) && *failed == nil {
			*failed = r.ops.fail(fmt.Sprintf("batch %s rounds %d+%d", a.Tenant, a.Seq, a.Rounds),
				fmt.Errorf("admitted %d: %v", a.Admitted, a.Err))
		}
	})
}

// phaseB is the pipelined closed loop: pipeBatch-round frames,
// round-robin over the tenants, pipeWindow frames in flight, staged for
// d. Acks come at admission, so the window alone would let queues grow
// without limit; the generator also holds back a tenant whose queue
// holds maxBacklog rounds, which keeps the loop closed on applied work
// and the servers' memory flat. The phase's time runs from its first
// frame until every queue is empty, so sched.Step on the shard workers
// dominates it.
func (r *run) phaseB(c *benchConn, k int, d time.Duration) error {
	var failed error
	depth := make([]int, len(r.tenants)) // each tenant's queue depth, as last reported
	pl := r.pipeline(c, pipeWindow, func(a serve.SubmitResult) {
		r.depths = append(r.depths, float64(a.Depth))
		depth[r.byID[a.Tenant].idx] = a.Depth
	}, &failed)
	ticks := make([]sched.Request, pipeBatch)
	from := mark(c)
	start := time.Now()
	end := start.Add(d)
	var rounds, frames int64
	for failed == nil && time.Now().Before(end) {
		staged := 0
		for _, t := range r.tenants {
			if depth[t.idx] >= maxBacklog {
				continue
			}
			t.fill(ticks)
			if err := c.stage(pl, t, ticks); err != nil {
				return err
			}
			depth[t.idx] += pipeBatch // until its ack reports the real depth
			rounds += pipeBatch
			frames++
			staged++
		}
		if staged > 0 {
			continue
		}
		// Every queue is full: let the servers catch up, then re-read
		// the depths.
		if err := c.flush(pl); err != nil {
			return err
		}
		rows, err := c.poll("")
		if err != nil {
			return err
		}
		for _, row := range rows {
			depth[r.byID[row.ID].idx] = row.QueueDepth
		}
	}
	if err := c.flush(pl); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}
	r.addWire(c, from, frames)
	if err := r.waitIdle(c, ""); err != nil {
		return err
	}
	took := time.Since(start)
	r.rates[k] = append(r.rates[k], float64(rounds)/took.Seconds())
	r.throughputRounds += rounds
	return nil
}

// maxFillSweeps bounds fillToRotation; one sweep logs a few hundred KiB,
// a segment is 4 MiB.
const maxFillSweeps = 200

// fillToRotation feeds pipelined sweeps over every tenant, untimed, until
// the checkpoint log rotates its active segment. Rotation compacts the
// log down to its sealed-segment bound, so the crash that follows always
// finds the same log shape, full sealed segments and an almost empty
// active one: recovery time then depends on the code, not on how full
// the active segment happened to be.
func (r *run) fillToRotation(c *benchConn) error {
	st, err := c.duraStats()
	if err != nil {
		return err
	}
	rotations := st.Rotations
	var failed error
	pl := r.pipeline(c, pipeWindow, nil, &failed)
	ticks := make([]sched.Request, pipeBatch)
	for sweep := 1; sweep <= maxFillSweeps; sweep++ {
		for _, t := range r.tenants {
			t.fill(ticks)
			if err := c.stage(pl, t, ticks); err != nil {
				return err
			}
		}
		if err := c.flush(pl); err != nil {
			return err
		}
		if failed != nil {
			return failed
		}
		if err := r.waitIdle(c, ""); err != nil {
			return err
		}
		if st, err = c.duraStats(); err != nil {
			return err
		}
		if st.Rotations > rotations {
			r.out.Info["recovery.fill_sweeps"] = float64(sweep)
			return nil
		}
	}
	return fmt.Errorf("the checkpoint log did not rotate within %d sweeps", maxFillSweeps)
}

// waitIdle polls until no queue holds a round: every queue, or only
// tenant id's when id is not empty.
func (r *run) waitIdle(c *benchConn, id string) error {
	deadline := time.Now().Add(idleTimeout)
	for {
		rows, err := c.poll(id)
		if err != nil {
			return err
		}
		queued := 0
		for _, row := range rows {
			queued += row.QueueDepth
		}
		if queued == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d rounds still queued after %v", queued, idleTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// clock is the open-loop sender's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends on a fixed schedule: send k is due at start+k·interval,
// for every k due before end. It sleeps while ahead of schedule and
// sends at once when behind, so a stall delays the sends after it. For
// each send it records the latency from the due time, not from when the
// send began, so the wait a stall imposes on later sends is counted.
// For each sleep it records how far past the due time the sender woke:
// the generator's own lateness, apart from waits the server caused.
func openLoop(clk clock, start time.Time, interval time.Duration, end time.Time, send func(k int) error) (lat, late []time.Duration, err error) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return lat, late, nil
		}
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
			late = append(late, clk.Now().Sub(due))
		}
		if err := send(k); err != nil {
			return lat, late, err
		}
		lat = append(lat, clk.Now().Sub(due))
	}
}

// measureSkewed runs cycle k's slice of the skewed_bdr traffic for d:
// the 63 reserved victims in a strict open loop on the second
// connection, and on the first the adversary's bursts with the stats
// reader between them.
func (r *run) measureSkewed(k int, d time.Duration) error {
	start := time.Now()
	end := start.Add(d)
	victims := r.tenants[1:]
	interval := time.Second / time.Duration(victimRate*len(victims))
	sends := int((end.Sub(start) + interval - 1) / interval)
	type victimOut struct {
		lat, late []time.Duration
		depths    []float64
		err       error
	}
	done := make(chan victimOut, 1)
	go func() {
		c := r.conns[1]
		var o victimOut
		o.lat, o.late, o.err = openLoop(realClock{}, start, interval, end, func(k int) error {
			if c.rec != nil {
				c.rec.on = k >= sends/2
			}
			depth, err := c.submit(victims[k%len(victims)])
			o.depths = append(o.depths, float64(depth))
			return err
		})
		done <- o
	}()
	err := r.adversary(r.conns[0], k, start, end)
	v := <-done
	if r.conns[1].rec != nil {
		r.conns[1].rec.on = true
	}
	if r.cfg.trace {
		half := min(sends/2, len(v.lat))
		r.submitLatTraced = append(r.submitLatTraced, v.lat[half:]...)
		v.lat = v.lat[:half]
	}
	r.submitLat[k] = append(r.submitLat[k], v.lat...)
	r.late = append(r.late, v.late...)
	r.depths = append(r.depths, v.depths...)
	if err != nil {
		return err
	}
	if v.err != nil {
		return v.err
	}
	return r.waitIdle(r.conns[0], "")
}

// adversary bursts tenant 0's whole trace every burstEvery from start,
// running the stats reader between bursts until end.
func (r *run) adversary(c *benchConn, k int, start, end time.Time) error {
	reader := &readerOut{}
	var err error
	for at := start; ; at = at.Add(burstEvery) {
		last := !at.Before(end)
		if last {
			at = end
		}
		if readStats(c, nil, at, reader); reader.err != nil || last {
			break
		}
		if err = r.burst(c, k); err != nil {
			break
		}
	}
	if rerr := r.merge(k, reader); err == nil {
		err = rerr
	}
	return err
}

// burst stages the adversary's whole trace, pipelined through advWindow
// frames, and times it until the adversary's queue is empty; rounds_per_s
// on skewed_bdr is the median burst's best-effort throughput under the
// reservations.
func (r *run) burst(c *benchConn, k int) error {
	adv := r.tenants[0]
	var failed error
	pl := r.pipeline(c, advWindow, func(a serve.SubmitResult) {
		r.depths = append(r.depths, float64(a.Depth))
	}, &failed)
	buf := make([]sched.Request, pipeBatch)
	from := mark(c)
	t0 := time.Now()
	var frames int64
	for i := 0; i < adv.period; i += pipeBatch {
		ticks := buf[:min(pipeBatch, adv.period-i)]
		adv.fill(ticks)
		if err := c.stage(pl, adv, ticks); err != nil {
			return err
		}
		frames++
	}
	if err := c.flush(pl); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}
	r.addWire(c, from, frames)
	if err := r.waitIdle(c, adv.id); err != nil {
		return err
	}
	r.throughputRounds += int64(adv.period)
	r.rates[k] = append(r.rates[k], float64(adv.period)/time.Since(t0).Seconds())
	return nil
}
