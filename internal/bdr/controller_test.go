package bdr

import (
	"math"
	"math/rand"
	"testing"
)

// TestSharesGuaranteeClamp is the SBF-clamp property: over random
// demand mixes, every backlogged reserved tenant's emitted weight
// fraction must be at least its guaranteed fraction f_i = rate/shard
// rate, regardless of how much slack the best-effort tenants bid for.
func TestSharesGuaranteeClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := &Controller{ShardRate: 1}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(10)
		demands := make([]Demand, n)
		out := make([]Share, n)
		sumRes := 0.0
		for i := range demands {
			demands[i] = Demand{
				Backlog: rng.Intn(200),
				Weight:  1 + rng.Intn(8),
			}
			if rng.Intn(2) == 0 && sumRes < 0.9 {
				r := BDR{Rate: 0.05 + rng.Float64()*(0.9-sumRes)/2, Delay: 1 + 15*rng.Float64()}
				sumRes += r.Rate
				demands[i].Res = r
			}
		}
		passBudget := 0
		if rng.Intn(2) == 0 {
			passBudget = 1 + rng.Intn(64)
		}
		c.Shares(demands, passBudget, out)
		totalW := 0
		for i := range out {
			totalW += out[i].Weight
		}
		for i := range demands {
			d := demands[i]
			if d.Backlog <= 0 {
				if out[i] != (Share{}) {
					t.Fatalf("trial %d: idle tenant got share %+v", trial, out[i])
				}
				continue
			}
			if out[i].Weight < 1 {
				t.Fatalf("trial %d: backlogged tenant %d got weight %d", trial, i, out[i].Weight)
			}
			if d.Res.IsZero() {
				continue
			}
			f := d.Res.Rate / c.ShardRate
			// Weight floor: ceil(f·scale) regardless of competition.
			if floor := int(math.Ceil(f * float64(scale))); out[i].Weight < floor {
				t.Fatalf("trial %d: tenant %d weight %d below guarantee floor %d (f=%g)",
					trial, i, out[i].Weight, floor, f)
			}
			if passBudget > 0 {
				if guard := int(math.Ceil(f * float64(passBudget))); out[i].Budget < guard {
					t.Fatalf("trial %d: tenant %d budget %d below guarantee %d (f=%g, pass=%d)",
						trial, i, out[i].Budget, guard, f, passBudget)
				}
			}
		}
	}
}

// TestSharesSlackSplit pins the DFRS behavior on a small hand-checked
// mix: one reserved tenant well inside its bound takes its fraction
// plus a modest slack bid; the best-effort tenant absorbs the rest.
func TestSharesSlackSplit(t *testing.T) {
	c := &Controller{ShardRate: 1}
	demands := []Demand{
		{Res: BDR{Rate: 0.5, Delay: 8}, Backlog: 4, Weight: 1}, // pressure = 4/(0.5·8) = 1
		{Backlog: 100, Weight: 1},                              // best-effort
	}
	out := make([]Share, 2)
	c.Shares(demands, 10, out)
	// slack = 0.5, demand = {1, 1} → reserved share 0.75, best-effort
	// 0.25, of a scale of 4096.
	if out[0].Weight != 3072 || out[1].Weight != 1024 {
		t.Fatalf("weights = %d/%d, want 3072/1024", out[0].Weight, out[1].Weight)
	}
	if out[0].Budget != 8 || out[1].Budget != 3 {
		t.Fatalf("budgets = %d/%d, want 8/3", out[0].Budget, out[1].Budget)
	}
}

// TestSharesPressureCap: a deeply backlogged reservation bids for slack
// at most maxPressure× its weight, so best-effort tenants keep a floor.
func TestSharesPressureCap(t *testing.T) {
	c := &Controller{ShardRate: 1}
	demands := []Demand{
		{Res: BDR{Rate: 0.1, Delay: 2}, Backlog: 100000, Weight: 1},
		{Backlog: 100, Weight: 1},
	}
	out := make([]Share, 2)
	c.Shares(demands, 0, out)
	// slack = 0.9, demand = {4, 1} → shares 0.1+0.72=0.82 and 0.18, of
	// a scale of 4096.
	if out[0].Weight != 3359 || out[1].Weight != 737 {
		t.Fatalf("weights = %d/%d, want 3359/737", out[0].Weight, out[1].Weight)
	}
}

// TestSharesUnreservedOnly: with no reservations the controller reduces
// to plain weighted fair sharing.
func TestSharesUnreservedOnly(t *testing.T) {
	c := &Controller{ShardRate: 1}
	demands := []Demand{
		{Backlog: 10, Weight: 2},
		{Backlog: 10, Weight: 1},
	}
	out := make([]Share, 2)
	c.Shares(demands, 0, out)
	// Shares 2/3 and 1/3 of a scale of 4096.
	if out[0].Weight != 2731 || out[1].Weight != 1365 {
		t.Fatalf("weights = %d/%d, want 2731/1365", out[0].Weight, out[1].Weight)
	}
}
