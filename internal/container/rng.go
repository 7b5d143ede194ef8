package container

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). All workload generators take an explicit *RNG so every
// experiment is reproducible from a seed; nothing in the repository draws
// entropy from the environment.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's internal state so it can be
// checkpointed; SetState(State()) resumes the stream exactly where it
// left off.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the generator's internal state, typically with a
// value previously obtained from State when restoring a checkpoint.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("container: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("container: RNG.IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Poisson returns a Poisson-distributed sample with the given mean, using
// Knuth's method for small means and a normal approximation for large
// ones. Means up to a few thousand are exercised by the workload
// generators.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction; adequate for
		// workload generation (not for statistical inference).
		v := mean + math.Sqrt(mean)*r.Normal()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Normal returns a standard normal sample (Box–Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Geometric returns a geometric sample: the number of failures before the
// first success with success probability p in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("container: RNG.Geometric with non-positive p")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Zipf samples from {0, …, n-1} with P(i) ∝ 1/(i+1)^s using inverse
// transform over precomputed weights held by the caller via ZipfWeights.
type Zipf struct {
	cum []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n ranks with exponent s ≥ 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("container: NewZipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, rng: rng}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search for the first cumulative weight ≥ u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
