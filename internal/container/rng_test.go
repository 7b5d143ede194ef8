package container

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(2)
	same := true
	a2 := NewRNG(1)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		if v := r.IntRange(3, 5); v < 3 || v > 5 {
			t.Fatalf("IntRange(3,5) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(5)
	for _, mean := range []float64{0.5, 3, 50} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > 0.15*mean+0.05 {
			t.Fatalf("Poisson(%v) sample mean %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(6)
	p := 0.25
	n := 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	want := (1 - p) / p // mean failures before success
	got := float64(sum) / float64(n)
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("Geometric(%v) sample mean %v, want ≈ %v", p, got, want)
	}
	if r.Geometric(1) != 0 {
		t.Fatal("Geometric(1) should be 0")
	}
}

func TestZipfSkewsTowardLowRanks(t *testing.T) {
	r := NewRNG(7)
	z := NewZipf(r, 10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		v := z.Next()
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("Zipf not skewed: counts %v", counts)
	}
	if counts[0] <= counts[1] {
		t.Fatalf("rank 0 should dominate rank 1: %v", counts)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(9)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("Normal variance %v", variance)
	}
}
