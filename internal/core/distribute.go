package core

import (
	"fmt"

	"repro/internal/sched"
)

// ColorMapping relates a transformed instance's virtual colors to the
// original colors.
type ColorMapping struct {
	// base[ℓ] is the first virtual color of original color ℓ; original
	// color ℓ owns virtual colors base[ℓ] … base[ℓ]+width[ℓ]-1.
	base []sched.Color
	back []sched.Color // virtual → original
}

// ToOriginal maps a virtual color back to its original color.
func (m *ColorMapping) ToOriginal(v sched.Color) sched.Color { return m.back[v] }

// Virtual returns virtual color (ℓ, j).
func (m *ColorMapping) Virtual(l sched.Color, j int) sched.Color {
	return m.base[l] + sched.Color(j)
}

// BuildDistributed constructs the rate-limited instance I′ of §4.1 step 1
// from a batched instance I: each color ℓ job with rank r within its
// request is recolored to the virtual color (ℓ, ⌊r/D_ℓ⌋), so at most D_ℓ
// jobs of each virtual color arrive per multiple of D_ℓ. Virtual color
// (ℓ, j) keeps delay bound D_ℓ.
//
// The input must be batched ([Δ | 1 | D_ℓ | D_ℓ]); BuildDistributed
// returns an error otherwise.
func BuildDistributed(inst *sched.Instance) (*sched.Instance, *ColorMapping, error) {
	if !inst.IsBatched() {
		return nil, nil, fmt.Errorf("core: BuildDistributed needs a batched instance (got %q)", inst.Name)
	}
	inst.Normalize()
	nc := inst.NumColors()

	// width[ℓ] = max over requests of ⌈count/D_ℓ⌉, the number of virtual
	// colors original color ℓ needs.
	width := make([]int, nc)
	for _, req := range inst.Requests {
		for _, b := range req {
			d := inst.Delays[b.Color]
			w := (b.Count + d - 1) / d
			if w > width[b.Color] {
				width[b.Color] = w
			}
		}
	}
	m := &ColorMapping{base: make([]sched.Color, nc)}
	total := 0
	for l := 0; l < nc; l++ {
		m.base[l] = sched.Color(total)
		total += width[l]
	}
	m.back = make([]sched.Color, total)
	delays := make([]int, total)
	for l := 0; l < nc; l++ {
		for j := 0; j < width[l]; j++ {
			v := int(m.base[l]) + j
			m.back[v] = sched.Color(l)
			delays[v] = inst.Delays[l]
		}
	}

	out := &sched.Instance{
		Name:     inst.Name + "+distributed",
		Delta:    inst.Delta,
		Delays:   delays,
		Requests: make([]sched.Request, len(inst.Requests)),
	}
	for i, req := range inst.Requests {
		var vr sched.Request
		for _, b := range req {
			d := inst.Delays[b.Color]
			remaining := b.Count
			for j := 0; remaining > 0; j++ {
				take := d
				if take > remaining {
					take = remaining
				}
				vr = append(vr, sched.Batch{Color: m.Virtual(b.Color, j), Count: take})
				remaining -= take
			}
		}
		out.Requests[i] = vr
	}
	return out, m, nil
}

// DistributeRun carries every intermediate of a Distribute invocation so
// tests and experiments can check Lemma 4.2 (the mapped schedule costs no
// more than the virtual one).
type DistributeRun struct {
	// Virtual is the rate-limited instance I′ and VirtualResult the inner
	// policy's result on it (schedule S′ of §4.1 step 2).
	Virtual       *sched.Instance
	Mapping       *ColorMapping
	VirtualResult *sched.Result
	// Schedule is S, the color-mapped schedule for the input instance
	// (§4.1 step 3), and Result its replay on the input instance.
	Schedule *sched.Schedule
	Result   *sched.Result
}

// DistributeWith runs the §4.1 reduction on a batched instance with n
// resources, using inner as the algorithm for the rate-limited core
// problem (the paper uses ΔLRU-EDF; tests also exercise others).
func DistributeWith(inst *sched.Instance, n int, inner sched.Policy) (*DistributeRun, error) {
	virtual, mapping, err := BuildDistributed(inst)
	if err != nil {
		return nil, err
	}
	vres, err := sched.Run(virtual, inner, sched.Options{N: n, Record: true})
	if err != nil {
		return nil, err
	}
	mapped := vres.Schedule.MapColors(mapping.ToOriginal)
	mapped.Policy = "Distribute(" + inner.Name() + ")"
	res, err := sched.Replay(inst, mapped)
	if err != nil {
		return nil, err
	}
	return &DistributeRun{
		Virtual:       virtual,
		Mapping:       mapping,
		VirtualResult: vres,
		Schedule:      mapped,
		Result:        res,
	}, nil
}

// Distribute runs the §4.1 reduction with ΔLRU-EDF as the core algorithm
// (Theorem 2) and returns the result on the input instance.
func Distribute(inst *sched.Instance, n int) (*sched.Result, error) {
	run, err := DistributeWith(inst, n, NewDLRUEDF())
	if err != nil {
		return nil, err
	}
	return run.Result, nil
}
