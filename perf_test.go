package rrs

// This file pins the repository's zero-allocation contracts (see
// docs/PERFORMANCE.md): a steady-state Stream.Step must not allocate for
// the full ΔLRU-EDF policy — tracker bookkeeping, recency sort, EDF
// ranking, cache sync and engine accounting included — nor for any other
// policy a server tenant can run. The contract covers the complete policy
// step, not just the unprobed engine (which TestStepAllocFree in
// internal/sched pins separately with a trivial Static policy).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
)

// steadyStream warms a stream over a mixed workload until every scratch
// buffer has reached its steady-state capacity.
func steadyStream(t testing.TB, pol sched.Policy, probe sched.Probe) (*sched.Stream, sched.Request) {
	t.Helper()
	st, err := sched.NewStream(pol, sched.StreamConfig{
		N:      16,
		Delta:  4,
		Delays: []int{2, 8, 4, 16, 2, 8, 4, 16},
		Probe:  probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unsorted, with a duplicate batch, so Step also pays normalization.
	req := sched.Request{
		{Color: 1, Count: 2}, {Color: 0, Count: 1}, {Color: 3, Count: 1},
		{Color: 5, Count: 2}, {Color: 0, Count: 1}, {Color: 6, Count: 1},
	}
	for i := 0; i < 512; i++ {
		if _, err := st.Step(req); err != nil {
			t.Fatal(err)
		}
	}
	return st, req
}

// pinStepAllocs asserts the steady-state allocation count of one Step
// and of one report-free Advance.
func pinStepAllocs(t *testing.T, name string, pol sched.Policy, probe sched.Probe, want float64) {
	t.Helper()
	st, req := steadyStream(t, pol, probe)
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"Step", func() error { _, err := st.Step(req); return err }},
		{"Advance", func() error { return st.Advance(req) }},
	} {
		allocs := testing.AllocsPerRun(300, func() {
			if err := step.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want {
			t.Errorf("%s: %v allocs per steady-state %s, want ≤ %v", name, allocs, step.name, want)
		}
	}
}

// TestFullPolicyStepAllocFree is the allocation-pinning test for the
// complete policy step of every servable policy (ΔLRU-EDF, its adaptive
// split and the §3.1 baselines), so a policy is pinned the moment it is
// registered: zero heap allocations per round in the steady state,
// through Step and through the report-free Advance the server uses. A
// regression here means a hot-path change reintroduced per-round garbage
// — see docs/PERFORMANCE.md for the usual culprits (sort.Slice, per-call
// maps, local scratch).
func TestFullPolicyStepAllocFree(t *testing.T) {
	for _, spec := range serve.PolicySpecs() {
		pol, err := serve.NewPolicy(spec)
		if err != nil {
			t.Fatal(err)
		}
		pinStepAllocs(t, spec, pol, nil, 0)
	}
}

// TestFullPolicyStepAllocFreeWithCounterSink extends the contract to the
// cheapest probe: observability at CounterSink level must stay free.
func TestFullPolicyStepAllocFreeWithCounterSink(t *testing.T) {
	pinStepAllocs(t, "DLRU-EDF+CounterSink", core.NewDLRUEDF(), &sched.CounterSink{}, 0)
}

// TestSnapshotAllocFlat pins the pooled snapshot path (PR 9): a
// steady-state Stream.AppendSnapshot into a recycled buffer must not
// allocate. This is what keeps the serve tier's group-commit checkpoint
// path flat — every checkpointed round takes one of these snapshots.
// internal/serve's TestCheckpointPathAllocFree pins the whole served
// round of a durable tenant: Advance, the snapshot and the log append.
func TestSnapshotAllocFlat(t *testing.T) {
	st, req := steadyStream(t, core.NewDLRUEDF(), nil)
	var buf []byte
	var err error
	// Warm: grow buf (and the encoder's internals) to working-set size.
	for i := 0; i < 4; i++ {
		if buf, err = st.AppendSnapshot(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Step(req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if buf, err = st.AppendSnapshot(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state AppendSnapshot: %v allocs per call, want 0", allocs)
	}
}
