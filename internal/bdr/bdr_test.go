package bdr

import (
	"math"
	"math/rand"
	"testing"
)

func TestSBF(t *testing.T) {
	b := BDR{Rate: 0.5, Delay: 4}
	cases := []struct{ t, want float64 }{
		{0, 0}, {2, 0}, {4, 0}, {6, 1}, {8, 2}, {12, 4},
	}
	for _, c := range cases {
		if got := b.SBF(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SBF(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := (BDR{}).SBF(100); got != 0 {
		t.Errorf("zero BDR SBF(100) = %g, want 0", got)
	}
}

func TestValid(t *testing.T) {
	for _, c := range []struct {
		b    BDR
		want bool
	}{
		{BDR{0.5, 4}, true},
		{BDR{1, 0}, true},
		{BDR{0, 0}, false},
		{BDR{-0.1, 4}, false},
		{BDR{0.5, -1}, false},
		{BDR{math.Inf(1), 1}, false},
		{BDR{math.NaN(), 1}, false},
		{BDR{0.5, math.NaN()}, false},
	} {
		if got := c.b.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.b, got, c.want)
		}
	}
}

// TestCanHostProperty is the Theorem-1 property test: over random
// parent/children sets, CanHost must agree exactly with the predicate
// "Σ child rates ≤ parent rate ∧ every child delay > parent delay".
func TestCanHostProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		parent := BDR{Rate: 0.1 + 3.9*rng.Float64(), Delay: 8 * rng.Float64()}
		n := rng.Intn(8)
		children := make([]BDR, n)
		sum := 0.0
		delaysOK := true
		for j := range children {
			// Mix children that straddle the boundary in both dimensions.
			children[j] = BDR{
				Rate:  0.05 + rng.Float64()*parent.Rate/2,
				Delay: parent.Delay * (0.5 + rng.Float64()),
			}
			if rng.Intn(8) == 0 {
				children[j].Delay = parent.Delay // exact tie: must be rejected
			}
			sum += children[j].Rate
			if children[j].Delay <= parent.Delay {
				delaysOK = false
			}
		}
		want := delaysOK && sum <= parent.Rate*(1+rateEpsilon)
		if got := CanHost(parent, children); got != want {
			t.Fatalf("iter %d: CanHost(%+v, %+v) = %v, want %v (Σ=%g)",
				i, parent, children, got, want, sum)
		}
	}
}

// TestCanHostExactTiling pins the epsilon: rates that tile the parent
// exactly must be admissible despite float accumulation.
func TestCanHostExactTiling(t *testing.T) {
	parent := BDR{Rate: 1, Delay: 1}
	children := make([]BDR, 10)
	for i := range children {
		children[i] = BDR{Rate: 0.1, Delay: 2}
	}
	if !CanHost(parent, children) {
		t.Fatal("10 × 0.1 must tile a rate-1 parent")
	}
	children = append(children, BDR{Rate: 0.01, Delay: 2})
	if CanHost(parent, children) {
		t.Fatal("exceeding the parent rate must be rejected")
	}
}
