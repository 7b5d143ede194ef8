package main

import (
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd computes the metrics a user of the service sees. Submit
// latencies are the median over cycles of each cycle's percentile;
// throughput, set-up, recovery and memory the median over cycles (or
// bursts, or restarts); stats latencies pool every cycle's samples.
//
// On the eager workloads each timing sample of a cycle is first scaled
// to a host on which the calibration loop takes refNominalNS: their
// servers run flat out on the shared vCPUs, so their timings follow the
// host's drifting speed, which the calibration around the cycle measures
// (README.md gives the spreads with and without). skewed_bdr's are
// reported as measured, since its submits and bursts wait on the
// servers' 200 µs pacing clock rather than on the CPU; there the submit
// latencies are the victims' open-loop latencies from each round's due
// time, and rounds_per_s is the adversary's best-effort burst throughput.
//
// The tails go to Info, without a bound: a slow spell of the host that
// spans a whole run multiplies them where it moves the medians by a
// fifth (README.md).
func (r *run) endToEnd() {
	info := r.out.Info
	m := r.timings(!r.w.skewed, info)
	if !r.w.skewed {
		for name, v := range r.timings(false, map[string]float64{}) {
			info["unscaled."+name] = v
		}
	}
	for _, name := range []string{"submit_p99_us", "stats_p99_us"} {
		info[name] = m[name]
		delete(m, name)
	}
	m["rss_mb"] = median(r.rss)
	r.out.EndToEnd = m
	r.out.CalibNS = median(r.calib[:])
	info["rounds.measured"] = float64(r.measuredRounds)
	info["cost_per_round"] = float64(r.cost) / float64(max(r.costRounds, 1))
	if r.w.durable && r.measuredRounds > 0 && r.dura.Fsyncs > 0 {
		rounds := float64(r.measuredRounds)
		info["dura.appends_per_round"] = float64(r.dura.Appends) / rounds
		info["dura.appends_per_fsync"] = float64(r.dura.Appends) / float64(r.dura.Fsyncs)
		info["dura.bytes_per_round"] = float64(r.dura.Bytes) / rounds
		info["dura.compactions"] = float64(r.dura.Compactions)
		info["dura.segments"] = float64(r.dura.Segments)
	}
}

// timings returns every timing metric, each cycle's samples scaled by its
// host factor when scale is set, and puts the sample counts, and the
// percentile each tail used, in info.
func (r *run) timings(scale bool, info map[string]float64) map[string]float64 {
	var setup, recovery, p50s, p99s, st, rates []float64
	samples, subPct := 0, 0.99
	for k := range r.submitLat {
		f := 1.0 // below 1 when the host ran slow
		if scale {
			f = refNominalNS / r.calib[k]
		}
		setup = append(setup, f*r.setupTimes[k].Seconds())
		for _, d := range r.recoveryTimes[k] {
			recovery = append(recovery, f*d.Seconds())
		}
		if sub := durs(r.submitLat[k], time.Microsecond); len(sub) > 0 {
			v, used := tail(sub, 0.99)
			p50s, p99s = append(p50s, f*quantile(sub, 0.5)), append(p99s, f*v)
			samples, subPct = samples+len(sub), min(subPct, used)
		}
		for _, d := range r.statsLat[k] {
			st = append(st, f*d.Seconds()*1e6)
		}
		for _, x := range r.rates[k] {
			rates = append(rates, x/f)
		}
	}
	slices.Sort(st)
	stTail, stPct := tail(st, 0.99)
	info["submit.samples"], info["submit.tail_pct"] = float64(samples), 100*subPct
	info["stats.samples"], info["stats.tail_pct"] = float64(len(st)), 100*stPct
	return map[string]float64{
		"setup_s":       median(setup),
		"recovery_s":    median(recovery),
		"submit_p50_us": median(p50s),
		"submit_p99_us": median(p99s),
		"rounds_per_s":  median(rates),
		"stats_p50_us":  quantile(st, 0.5),
		"stats_p99_us":  stTail,
	}
}

// Nominal checkpoint cadence for the durability replay of workloads
// that run without a log: one checkpoint per wdrr quantum of 8 rounds,
// one group commit per 64 appends.
const (
	nominalAppendsPerRound = 1.0 / 8
	nominalAppendsPerSync  = 64
)

// perLayer computes the traced run's per-layer numbers: client and conn
// spans, wire counters, ack depths, /proc readings, and the local
// replays of the layers no client span reaches.
func (r *run) perLayer() error {
	sp := collectSpans(r.recs)
	submits := sp.durations(spSubmit)
	submitTail, _ := tail(submits, 0.99)
	self, kids := sp.medianBreakdown(spSubmit)
	late := durs(r.late, time.Millisecond)
	lateTail, _ := tail(late, 0.99)
	depths := sortedFloats(r.depths)
	depthTail, _ := tail(depths, 0.99)
	// Acks a pipelined frame waited for, in SubmitBatch once the window
	// is full or in the Flush that ends a stretch, per frame.
	stall := (sp.blocked(spBatch) + sp.blocked(spFlush)) / float64(max(r.framesB, 1))
	L := map[string]float64{
		"gen.late_p99_ms":         lateTail,
		"gen.cpu_frac":            r.genCPU.Seconds() / (r.wall.Seconds() * float64(runtime.NumCPU())),
		"client.submit.p50_us":    quantile(submits, 0.5) / 1e3,
		"client.submit.p99_us":    submitTail / 1e3,
		"client.submit.self_us":   self / 1e3,
		"conn.write.p50_us":       kids[spWrite] / 1e3,
		"conn.wait.p50_us":        kids[spWait] / 1e3,
		"wire.bytes_per_round":    float64(r.bytesB) / float64(r.throughputRounds),
		"wire.frames_per_flush":   float64(r.framesB) / float64(max(r.writesB, 1)),
		"client.batch.stall_us":   stall / 1e3,
		"client.stats.p50_us":     quantile(sp.durations(spStats), 0.5) / 1e3,
		"client.open.p50_us":      quantile(sp.durations(spOpen), 0.5) / 1e3,
		"queue.depth_p50":         quantile(depths, 0.5),
		"queue.depth_p99":         depthTail,
		"sched.step_ns":           quantile(sortedFloats(r.stepNS), 0.5),
		"server.cpu_us_per_round": float64(r.serverCPU.Microseconds()) / float64(r.measuredRounds),
		"server.rss_mb":           median(r.rss),
		"setup.exec_ms":           median(seconds(r.execTimes)) * 1e3,
		"recovery.listen_ms":      median(seconds(r.listenTimes)) * 1e3,
		"trace.overhead_frac": quantile(durs(r.submitLatTraced, time.Nanosecond), 0.5)/
			quantile(durs(slices.Concat(r.submitLat[:]...), time.Nanosecond), 0.5) - 1,
	}
	r.out.Info["trace.spans"] = float64(sp.count)
	if r.w.proxied {
		r.out.Info["proxy.cpu_us_per_round"] = float64(r.proxyCPU.Microseconds()) / float64(r.measuredRounds)
	}

	snaps := append(r.snaps, r.finalRows)
	pick, err := timePick(snaps)
	if err != nil {
		return err
	}
	L["alloc.pick_ns"] = pick
	L["bdr.shares_ns"] = timeShares(snaps)
	if L["bdr.admit_ns"], err = timeAdmit(r.cfg.seed); err != nil {
		return err
	}
	// The last cycle's rows: shares, delay factors and, over the reserved
	// tenants (skewed_bdr only, else 0), the lowest budget utilisation.
	var admitted, shed int64
	L["bdr.budget_util_min"] = 0
	for i, row := range r.finalRows {
		if i == 0 || row.ServiceShare < L["alloc.service_share_min"] {
			L["alloc.service_share_min"] = row.ServiceShare
		}
		L["alloc.service_share_max"] = max(L["alloc.service_share_max"], row.ServiceShare)
		L["alloc.max_delay_factor"] = max(L["alloc.max_delay_factor"], row.MaxDelayFactor)
		if u := row.BudgetUtilization; row.ReservedRate > 0 && (L["bdr.budget_util_min"] == 0 || u < L["bdr.budget_util_min"]) {
			L["bdr.budget_util_min"] = u
		}
		admitted += int64(row.NextSeq)
		shed += row.Overloads
	}
	L["queue.shed_frac"] = float64(shed) / float64(max(admitted+shed, 1))
	if L["proxy.route_ns"], err = timeRoute(frames(r.primary.capture), r.backends); err != nil {
		return err
	}

	perRound, perSync := nominalAppendsPerRound, float64(nominalAppendsPerSync)
	if r.w.durable {
		perRound, perSync = min(r.out.Info["dura.appends_per_round"], 1), r.out.Info["dura.appends_per_fsync"]
	}
	dura, err := durabilityReplay(r.tenants, filepath.Join(r.cfg.workDir, "replay"), perRound, perSync)
	if err != nil {
		return err
	}
	for k, v := range dura {
		L[k] = v
	}
	r.out.PerLayer = L
	return nil
}
