package main

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at 1/50 of the benchmark's
// run time against freshly built servers, with verification, and the
// traced variant of one of them, and checks that each reports every
// metric BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := buildServers("..", bin); err != nil {
		t.Fatal(err)
	}
	procs := newProcSet()
	defer procs.killAll()
	run := func(w workloadDef, traced bool) {
		t.Helper()
		cfg := runConfig{
			workload: w, seed: 7, seconds: time.Duration(spec.RunSeconds) * time.Second / 50, trace: traced,
			traceOut: filepath.Join(dir, "trace.json"), binDir: bin,
			workDir: filepath.Join(dir, "work-"+w.name), procs: procs, logf: t.Logf,
		}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d problems=%v", w.name, res.Correct, res.Failed, res.Problems)
		}
		line, err := summarize([]*runResult{res}, spec, traced, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := len(spec.EndToEnd)
		if traced {
			want = len(spec.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Fatalf("%s: %d metrics, want %d", w.name, len(line.Metrics), want)
		}
		if traced {
			return
		}
		for name, v := range line.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %g, want a positive measurement", w.name, name, v.Value)
			}
		}
	}
	for _, w := range workloads {
		run(w, false)
	}
	run(workloads[0], true)
}
