package bdr

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func mustTree(t *testing.T, machine BDR, shards []BDR) *Tree {
	t.Helper()
	tr, err := NewTree(machine, shards)
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	return tr
}

func TestNewTreeValidation(t *testing.T) {
	machine := BDR{Rate: 2, Delay: 0.5}
	if _, err := NewTree(machine, []BDR{{1, 1}, {1, 1}}); err != nil {
		t.Fatalf("feasible machine/shard split rejected: %v", err)
	}
	// Shard rates exceeding the machine rate.
	if _, err := NewTree(machine, []BDR{{1.5, 1}, {1, 1}}); err == nil {
		t.Fatal("overcommitted shard split accepted")
	}
	// Shard delay not exceeding the machine delay.
	if _, err := NewTree(machine, []BDR{{1, 0.5}}); err == nil {
		t.Fatal("shard delay equal to machine delay accepted")
	}
	if _, err := NewTree(BDR{}, []BDR{{1, 1}}); err == nil {
		t.Fatal("zero machine accepted")
	}
}

func TestAdmitReleaseResize(t *testing.T) {
	tr := mustTree(t, BDR{Rate: 1, Delay: 0.5}, []BDR{{Rate: 1, Delay: 1}})
	if err := tr.Admit(0, "a", BDR{Rate: 0.5, Delay: 8}); err != nil {
		t.Fatalf("admit a: %v", err)
	}
	if err := tr.Admit(0, "a", BDR{Rate: 0.1, Delay: 8}); err == nil {
		t.Fatal("double admit accepted")
	}
	// Over the residual: typed error carrying the residual capacity.
	err := tr.Admit(0, "b", BDR{Rate: 0.75, Delay: 8})
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("overcommit admit: got %v, want *InfeasibleError", err)
	}
	if inf.ResidualRate != 0.5 || inf.MinDelay != 1 {
		t.Fatalf("residual = (%g, >%g), want (0.5, >1)", inf.ResidualRate, inf.MinDelay)
	}
	// Delay at the shard bound: rejected.
	if err := tr.Admit(0, "b", BDR{Rate: 0.25, Delay: 1}); !errors.As(err, &inf) {
		t.Fatalf("delay-tie admit: got %v, want *InfeasibleError", err)
	}
	// Fits the residual exactly.
	if err := tr.Admit(0, "b", BDR{Rate: 0.5, Delay: 4}); err != nil {
		t.Fatalf("admit b: %v", err)
	}
	if got := tr.sums[0]; got < 1-1e-9 {
		t.Fatalf("reserved rate after full tiling = %g, want 1", got)
	}
	// A failed admit leaves the reservations in force.
	if err := tr.Admit(0, "c", BDR{Rate: 0.1, Delay: 8}); !errors.As(err, &inf) {
		t.Fatalf("admit onto a full shard: got %v, want *InfeasibleError", err)
	}
	if r, ok := tr.reserved[0]["a"]; !ok || r.Rate != 0.5 {
		t.Fatalf("reservation a after failed admit = (%+v, %v), want rate 0.5", r, ok)
	}
	// Release is idempotent and frees the rate.
	tr.Release(0, "a")
	tr.Release(0, "a")
	if got := tr.sums[0]; got > 0.5+1e-9 {
		t.Fatalf("reserved rate after release = %g, want 0.5", got)
	}
	if len(tr.reserved[0]) != 1 {
		t.Fatalf("%d reservations on shard 0, want 1", len(tr.reserved[0]))
	}
	if err := tr.Admit(0, "a", BDR{Rate: 0.5, Delay: 8}); err != nil {
		t.Fatalf("admit into the released rate: %v", err)
	}
}

// TestTreeInvariantProperty drives a random admit/release workload and
// checks after every operation that the shard's children remain
// feasible under CanHost — the tree must never transition into an
// infeasible state, whether the operation succeeded or failed.
func TestTreeInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		shards := []BDR{{Rate: 1, Delay: 1}, {Rate: 1, Delay: 2}}
		tr := mustTree(t, BDR{Rate: 2, Delay: 0.5}, shards)
		for op := 0; op < 400; op++ {
			shard := rng.Intn(len(shards))
			id := fmt.Sprintf("t%d", rng.Intn(12))
			r := BDR{
				Rate:  0.01 + 0.6*rng.Float64(),
				Delay: shards[shard].Delay * (0.8 + rng.Float64()), // straddles the bound
			}
			if rng.Intn(2) == 0 {
				_ = tr.Admit(shard, id, r)
			} else {
				tr.Release(shard, id)
			}
			for i := range shards {
				children := make([]BDR, 0, len(tr.reserved[i]))
				for _, res := range tr.reserved[i] {
					children = append(children, res)
				}
				if !CanHost(shards[i], children) {
					t.Fatalf("trial %d op %d: shard %d infeasible with %+v", trial, op, i, children)
				}
				// The cached sum must track the map (within float noise).
				if got, want := tr.sums[i], sumMap(tr.reserved[i]); got < want-1e-9 || got > want+1e-9 {
					t.Fatalf("trial %d op %d: shard %d cached sum %g, map sum %g", trial, op, i, got, want)
				}
			}
		}
	}
}
