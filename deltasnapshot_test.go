package rrs

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/snap"
)

// TestFaultInjectionDeltaSnapshots extends the crash-fault harness to
// delta snapshots, encoded by snap.DeltaMaker as the serve tier's
// checkpoint log encodes them: at every round of a reference run a
// delta is taken against a full base snapshot, the delta is applied
// back onto the base, and the stream "killed" there is restored from
// the applied blob and driven to the end of the trace.
// The resumed Result must be bit-identical to the uninterrupted run —
// the same contract the full-snapshot harness pins — and each applied
// delta must reproduce the round's full snapshot byte for byte.
func TestFaultInjectionDeltaSnapshots(t *testing.T) {
	inst := faultInstance()
	for _, fc := range faultCases() {
		t.Run(fc.name, func(t *testing.T) {
			cfg := StreamConfig{N: 8, Speed: fc.speed, Delta: inst.Delta, Delays: inst.Delays}
			arrivals := func(r int) Request {
				if r < inst.NumRounds() {
					return inst.Requests[r]
				}
				return nil
			}

			st, err := NewStream(fc.mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			type snapPair struct{ full, applied []byte }
			var snaps []snapPair
			snaps = append(snaps, snapPair{base, base})
			var dm snap.DeltaMaker
			var deltaBuf []byte
			for st.Round() < inst.NumRounds() || st.TotalPending() > 0 {
				if _, err := st.Step(arrivals(st.Round())); err != nil {
					t.Fatal(err)
				}
				full, err := st.Snapshot()
				if err != nil {
					t.Fatalf("full snapshot at round %d: %v", st.Round(), err)
				}
				deltaBuf = dm.AppendDelta(deltaBuf[:0], base, full)
				applied, err := snap.ApplyDelta(nil, base, deltaBuf)
				if err != nil {
					t.Fatalf("apply delta at round %d: %v", st.Round(), err)
				}
				if !bytes.Equal(applied, full) {
					t.Fatalf("round %d: applied delta differs from full snapshot", st.Round())
				}
				snaps = append(snaps, snapPair{full, applied})
			}
			want := st.Result()
			total := st.Round()

			// Crash at a spread of rounds, restore from the applied delta.
			for k := 0; k <= total; k += 1 + total/16 {
				st2, err := RestoreStream(fc.mk(), snaps[k].applied, nil)
				if err != nil {
					t.Fatalf("restore from applied delta at round %d: %v", k, err)
				}
				for st2.Round() < total {
					if _, err := st2.Step(arrivals(st2.Round())); err != nil {
						t.Fatalf("resumed run at round %d: %v", st2.Round(), err)
					}
				}
				if got := st2.Result(); !reflect.DeepEqual(got, want) {
					t.Fatalf("crash at round %d: delta-restored Result diverged", k)
				}
			}
		})
	}
}
