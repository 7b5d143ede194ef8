// Package events provides a continuous-time front-end to the round-based
// model: arrival processes (Poisson and on/off-modulated) emit
// timestamped job events, which Discretize buckets into the slotted
// rounds the paper's model — and the simulator — operate on. This mirrors
// how the motivating systems work: packets hit a router in continuous
// time, while the processor reconfigures and executes in discrete slots.
package events

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/sched"
)

// Event is one unit-job arrival at a continuous timestamp.
type Event struct {
	Time  float64
	Color sched.Color
}

// Source produces events in nondecreasing time order. Next reports false
// when the source is exhausted.
type Source interface {
	Next() (Event, bool)
}

// PoissonSource emits events of one color with exponential interarrival
// times (rate events per unit time) until the horizon.
type PoissonSource struct {
	rng     *container.RNG
	color   sched.Color
	rate    float64
	now     float64
	horizon float64
}

// NewPoissonSource builds a Poisson arrival process for color with the
// given rate over [0, horizon).
func NewPoissonSource(seed uint64, color sched.Color, rate, horizon float64) *PoissonSource {
	if rate <= 0 || horizon <= 0 {
		panic("events: NewPoissonSource needs positive rate and horizon")
	}
	return &PoissonSource{
		rng:     container.NewRNG(seed),
		color:   color,
		rate:    rate,
		horizon: horizon,
	}
}

// Next implements Source.
func (p *PoissonSource) Next() (Event, bool) {
	p.now += p.exp(p.rate)
	if p.now >= p.horizon {
		return Event{}, false
	}
	return Event{Time: p.now, Color: p.color}, true
}

func (p *PoissonSource) exp(rate float64) float64 {
	u := p.rng.Float64()
	for u == 0 {
		u = p.rng.Float64()
	}
	return -math.Log(u) / rate
}

// OnOffSource is a Markov-modulated Poisson process: it alternates
// exponentially-distributed on-periods (emitting at rate) and off-periods
// (silent), the continuous-time analogue of workload.BurstSpec.
type OnOffSource struct {
	rng      *container.RNG
	color    sched.Color
	rate     float64
	onMean   float64
	offMean  float64
	now      float64
	phaseEnd float64
	on       bool
	horizon  float64
}

// NewOnOffSource builds an on/off-modulated source for color: on-periods
// of mean onMean, off-periods of mean offMean, emission rate while on.
func NewOnOffSource(seed uint64, color sched.Color, rate, onMean, offMean, horizon float64) *OnOffSource {
	if rate <= 0 || onMean <= 0 || offMean <= 0 || horizon <= 0 {
		panic("events: NewOnOffSource needs positive parameters")
	}
	s := &OnOffSource{
		rng:     container.NewRNG(seed),
		color:   color,
		rate:    rate,
		onMean:  onMean,
		offMean: offMean,
		on:      true,
		horizon: horizon,
	}
	s.phaseEnd = s.exp(1 / onMean)
	return s
}

func (s *OnOffSource) exp(rate float64) float64 {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return -math.Log(u) / rate
}

// Next implements Source.
func (s *OnOffSource) Next() (Event, bool) {
	for {
		if !s.on {
			// Skip the whole off phase.
			s.now = s.phaseEnd
			s.on = true
			s.phaseEnd = s.now + s.exp(1/s.onMean)
		}
		if s.now >= s.horizon {
			return Event{}, false
		}
		gap := s.exp(s.rate)
		if s.now+gap < s.phaseEnd {
			s.now += gap
			if s.now >= s.horizon {
				return Event{}, false
			}
			return Event{Time: s.now, Color: s.color}, true
		}
		// The on phase ends before the next arrival; switch off.
		s.now = s.phaseEnd
		s.on = false
		s.phaseEnd = s.now + s.exp(1/s.offMean)
		if s.now >= s.horizon {
			return Event{}, false
		}
	}
}

// Merge combines sources into one time-ordered stream with a k-way heap
// merge.
func Merge(sources ...Source) Source {
	m := &merger{}
	for i, s := range sources {
		if ev, ok := s.Next(); ok {
			m.items = append(m.items, mergeItem{ev: ev, src: s, idx: i})
		}
	}
	heap.Init(m)
	return m
}

type mergeItem struct {
	ev  Event
	src Source
	idx int
}

type merger struct{ items []mergeItem }

func (m *merger) Len() int { return len(m.items) }
func (m *merger) Less(i, j int) bool {
	if m.items[i].ev.Time != m.items[j].ev.Time {
		return m.items[i].ev.Time < m.items[j].ev.Time
	}
	return m.items[i].idx < m.items[j].idx // deterministic tie-break
}
func (m *merger) Swap(i, j int) { m.items[i], m.items[j] = m.items[j], m.items[i] }
func (m *merger) Push(x any)    { m.items = append(m.items, x.(mergeItem)) }
func (m *merger) Pop() any {
	n := len(m.items)
	it := m.items[n-1]
	m.items = m.items[:n-1]
	return it
}

// Next implements Source.
func (m *merger) Next() (Event, bool) {
	if len(m.items) == 0 {
		return Event{}, false
	}
	top := m.items[0]
	if ev, ok := top.src.Next(); ok {
		m.items[0].ev = ev
		heap.Fix(m, 0)
	} else {
		heap.Pop(m)
	}
	return top.ev, true
}

// Collect drains a source into a slice (bounded by maxEvents as a safety
// net; 0 means 10 million).
func Collect(src Source, maxEvents int) ([]Event, error) {
	if maxEvents <= 0 {
		maxEvents = 10_000_000
	}
	var out []Event
	for {
		ev, ok := src.Next()
		if !ok {
			return out, nil
		}
		out = append(out, ev)
		if len(out) > maxEvents {
			return nil, fmt.Errorf("events: Collect exceeded %d events", maxEvents)
		}
	}
}

// Discretize buckets timestamped events into rounds of the given duration
// and produces a model instance with the given Δ and per-color delay
// bounds. Event k with time t lands in round ⌊t/roundDuration⌋. Events
// must be time-ordered (Merge and the sources guarantee this).
func Discretize(evs []Event, roundDuration float64, delta int, delays []int) (*sched.Instance, error) {
	if roundDuration <= 0 {
		return nil, fmt.Errorf("events: Discretize needs a positive round duration")
	}
	inst := &sched.Instance{
		Name:   fmt.Sprintf("discretized(dt=%g)", roundDuration),
		Delta:  delta,
		Delays: delays,
	}
	prev := math.Inf(-1)
	for _, ev := range evs {
		if ev.Time < prev {
			return nil, fmt.Errorf("events: Discretize needs time-ordered events (%g after %g)", ev.Time, prev)
		}
		prev = ev.Time
		if ev.Color < 0 || int(ev.Color) >= len(delays) {
			return nil, fmt.Errorf("events: Discretize: unknown color %d", ev.Color)
		}
		round := int(ev.Time / roundDuration)
		if round < 0 {
			return nil, fmt.Errorf("events: Discretize: negative time %g", ev.Time)
		}
		inst.AddJobs(round, ev.Color, 1)
	}
	inst.Normalize()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}
