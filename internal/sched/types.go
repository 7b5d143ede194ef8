// Package sched defines the reconfigurable-resource-scheduling model of
// Plaxton, Sun, Tiwari and Vin (IPPS 2007) and a deterministic round-based
// simulator for it.
//
// An instance consists of unit jobs of colored categories arriving over
// integer rounds. Each color ℓ has a fixed delay bound D_ℓ; a job arriving
// in round t must be executed on a resource configured with its color in
// rounds t … t+D_ℓ−1 or it is dropped at unit cost at the start of round
// t+D_ℓ. Reconfiguring a resource to a different color costs Δ. A round
// has four phases, in order: drop, arrival, reconfiguration, execution
// (§2 of the paper). The goal is to minimize reconfiguration + drop cost.
package sched

import (
	"cmp"
	"fmt"
	"slices"
)

// Color identifies a job category. Colors are dense small integers
// 0 … NumColors-1. NoColor represents the initial "black" configuration of
// a resource (no jobs can run on a black resource).
type Color int32

// NoColor is the initial (black) configuration of every resource.
const NoColor Color = -1

// Batch is a group of Count unit jobs of one color arriving together.
type Batch struct {
	Color Color
	Count int
}

// Request is the (possibly empty) set of jobs arriving in one round,
// grouped per color.
type Request []Batch

// Jobs reports the total number of jobs in the request.
func (r Request) Jobs() int {
	n := 0
	for _, b := range r {
		n += b.Count
	}
	return n
}

// Instance is a complete problem instance: the reconfiguration cost Δ, the
// per-color delay bounds, and the request sequence.
type Instance struct {
	// Name labels the instance in experiment output.
	Name string
	// Delta is the fixed reconfiguration cost Δ (a positive integer).
	Delta int
	// Delays[c] is the delay bound D_c of color c (a positive integer).
	Delays []int
	// Requests[i] is the request received in round i. Entries may be nil
	// (empty requests). The instance covers rounds 0 … len(Requests)-1;
	// the simulator keeps running past the end until no jobs are pending.
	Requests []Request
}

// NumColors reports the number of colors in the instance.
func (in *Instance) NumColors() int { return len(in.Delays) }

// NumRounds reports the number of rounds carrying (possibly empty)
// requests.
func (in *Instance) NumRounds() int { return len(in.Requests) }

// MaxDelay returns the largest delay bound, or 0 for a colorless instance.
func (in *Instance) MaxDelay() int {
	m := 0
	for _, d := range in.Delays {
		if d > m {
			m = d
		}
	}
	return m
}

// Horizon reports the number of rounds after which every job has been
// executed or dropped: NumRounds + MaxDelay.
func (in *Instance) Horizon() int { return in.NumRounds() + in.MaxDelay() }

// TotalJobs reports the total number of jobs across all requests.
func (in *Instance) TotalJobs() int {
	n := 0
	for _, r := range in.Requests {
		n += r.Jobs()
	}
	return n
}

// JobsPerColor returns a slice counting the jobs of each color.
func (in *Instance) JobsPerColor() []int {
	per := make([]int, in.NumColors())
	for _, r := range in.Requests {
		for _, b := range r {
			per[b.Color] += b.Count
		}
	}
	return per
}

// Validate checks structural sanity: Δ ≥ 1, every delay bound ≥ 1, and
// every round passes ValidateRequest.
func (in *Instance) Validate() error {
	if in.Delta < 1 {
		return fmt.Errorf("sched: instance %q: Delta must be ≥ 1, got %d", in.Name, in.Delta)
	}
	for c, d := range in.Delays {
		if d < 1 {
			return fmt.Errorf("sched: instance %q: color %d has delay bound %d < 1", in.Name, c, d)
		}
	}
	for i, r := range in.Requests {
		if err := ValidateRequest(r, in.NumColors()); err != nil {
			return fmt.Errorf("sched: instance %q: round %d: %w", in.Name, i, err)
		}
	}
	return nil
}

// IsBatched reports whether the instance satisfies the batched-arrival
// restriction [Δ | 1 | D_ℓ | D_ℓ]: every job of color ℓ arrives at an
// integral multiple of D_ℓ.
func (in *Instance) IsBatched() bool {
	for i, r := range in.Requests {
		for _, b := range r {
			if i%in.Delays[b.Color] != 0 {
				return false
			}
		}
	}
	return true
}

// IsRateLimited reports whether the instance satisfies the rate limit of
// §3: at most D_ℓ jobs of color ℓ arrive at each integral multiple of D_ℓ
// (and the instance is batched).
func (in *Instance) IsRateLimited() bool {
	if !in.IsBatched() {
		return false
	}
	for _, r := range in.Requests {
		for _, b := range r {
			if b.Count > in.Delays[b.Color] {
				return false
			}
		}
	}
	return true
}

// HasPowerOfTwoDelays reports whether every delay bound is a power of 2,
// the precondition of Sections 3–5 before the §5.3 extension.
func (in *Instance) HasPowerOfTwoDelays() bool {
	for _, d := range in.Delays {
		if d&(d-1) != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	c := &Instance{
		Name:     in.Name,
		Delta:    in.Delta,
		Delays:   append([]int(nil), in.Delays...),
		Requests: make([]Request, len(in.Requests)),
	}
	for i, r := range in.Requests {
		if r != nil {
			c.Requests[i] = append(Request(nil), r...)
		}
	}
	return c
}

// Normalize sorts the batches of every request by color and merges
// duplicate colors, giving a canonical representation. It returns the
// receiver for chaining.
func (in *Instance) Normalize() *Instance {
	for i, r := range in.Requests {
		in.Requests[i] = normalizeRequest(r)
	}
	return in
}

// normalizeRequest sorts a request's batches by color and merges
// duplicates, in place, returning the canonical slice. Both Instance
// normalization and Stream.Step use it, so the two front-ends hand
// policies byte-identical arrivals. The sort allocates nothing, which
// the Stream dataplane's zero-allocation guarantee relies on; it need
// not be stable, because the merge sums equal colors in any order.
func normalizeRequest(r Request) Request {
	if len(r) <= 1 {
		return r
	}
	slices.SortFunc(r, func(a, b Batch) int { return cmp.Compare(a.Color, b.Color) })
	out := r[:0]
	for _, b := range r {
		if n := len(out); n > 0 && out[n-1].Color == b.Color {
			out[n-1].Count += b.Count
		} else {
			out = append(out, b)
		}
	}
	return out
}

// AddJobs appends count jobs of color c arriving at round. The request
// slice is grown as needed.
func (in *Instance) AddJobs(round int, c Color, count int) {
	if count <= 0 {
		return
	}
	for len(in.Requests) <= round {
		in.Requests = append(in.Requests, nil)
	}
	in.Requests[round] = append(in.Requests[round], Batch{Color: c, Count: count})
}

// PowerOfTwoAtMost returns the largest power of two ≤ v (v ≥ 1).
func PowerOfTwoAtMost(v int) int {
	p := 1
	for p*2 <= v {
		p <<= 1
	}
	return p
}
