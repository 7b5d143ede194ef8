package main

import (
	"math"
	"testing"
	"time"
)

// Half the cycles run on a host twice as slow, and every timing sample
// shows it. Scaled by each cycle's calibration, the eager workload's
// metrics read as if every cycle ran at nominal speed; skewed_bdr,
// clock-bound, reports its samples as measured. Tails go to Info.
func TestEndToEndScalesEachCycleByItsCalibration(t *testing.T) {
	us := func(x float64) time.Duration { return time.Duration(x * float64(time.Microsecond)) }
	build := func(name string) *run {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{w: w, out: &runResult{Info: map[string]float64{}}}
		for k := range r.calib {
			slow := 1.0
			if k < cycles/2 {
				slow = 2
			}
			r.calib[k] = slow * refNominalNS
			r.setupTimes[k] = us(slow * 5000)
			r.recoveryTimes[k] = []time.Duration{us(slow * 4000), us(slow * 4000)}
			r.submitLat[k] = []time.Duration{us(slow * 10)}
			r.statsLat[k] = []time.Duration{us(slow * 100)}
			r.rates[k] = []float64{1000 / slow}
		}
		r.endToEnd()
		return r
	}
	check := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", what, got, want)
		}
	}

	r := build("direct")
	for name, want := range map[string]float64{
		"setup_s": 0.005, "recovery_s": 0.004, "submit_p50_us": 10, "stats_p50_us": 100, "rounds_per_s": 1000,
	} {
		check("direct "+name, r.out.EndToEnd[name], want)
	}
	check("direct submit_p99_us (info)", r.out.Info["submit_p99_us"], 10)
	if _, ok := r.out.EndToEnd["submit_p99_us"]; ok {
		t.Error("the submit tail is an end-to-end metric; want it in Info only")
	}
	// Unscaled, the median falls between the slow and the fast cycles.
	check("direct unscaled submit_p50_us", r.out.Info["unscaled.submit_p50_us"], 15)
	check("direct unscaled rounds_per_s", r.out.Info["unscaled.rounds_per_s"], 750)
	check("direct host.calib_ns", r.out.CalibNS, 1.5*refNominalNS)

	r = build("skewed_bdr")
	check("skewed_bdr submit_p50_us", r.out.EndToEnd["submit_p50_us"], 15)
	check("skewed_bdr setup_s", r.out.EndToEnd["setup_s"], 0.0075)
	check("skewed_bdr rounds_per_s", r.out.EndToEnd["rounds_per_s"], 750)
	if _, ok := r.out.Info["unscaled.submit_p50_us"]; ok {
		t.Errorf("skewed_bdr reports unscaled metrics, but none of its metrics is scaled")
	}
}
