// Package colorstate implements the per-color bookkeeping that the online
// algorithms of §3.1 (ΔLRU, EDF, ΔLRU-EDF) share: the counter ℓ.cnt, the
// per-color deadline ℓ.dd, the eligible/ineligible state, the counter
// wrapping events, and the lazy LRU timestamp. It also instruments epochs
// and timestamp-update events so experiments can validate Lemmas 3.3–3.5
// empirically.
//
// Protocol (§3.1 "common aspects"), per round k, driven by the owning
// policy at the start of its reconfiguration phase:
//
//  1. BeginRound(k, cached) applies the drop-phase rule for every known
//     color ℓ with k ≡ 0 (mod D_ℓ): the timestamp becomes the latest
//     wrapping round before k, and if ℓ is eligible and not cached it
//     turns ineligible with ℓ.cnt reset to zero (ending its epoch). It
//     also applies arrival-phase step 1: ℓ.dd ← k + D_ℓ.
//  2. OnArrival(k, ℓ, count) applies arrival-phase steps 2–3: the counter
//     grows by count and wraps modulo Δ when it reaches Δ (a counter
//     wrapping event), making ℓ eligible.
package colorstate

import (
	"repro/internal/container"
	"repro/internal/sched"
	"repro/internal/snap"
)

// State is the paper's per-color record.
type State struct {
	// Known marks colors that have appeared in the input.
	Known bool
	// Cnt is ℓ.cnt, the arrival counter modulo Δ.
	Cnt int
	// Deadline is ℓ.dd, set to k + D_ℓ at every multiple k of D_ℓ.
	Deadline int
	// Eligible is the eligibility bit.
	Eligible bool
	// LastWrap is the round of the most recent counter wrapping event
	// (−1 if none).
	LastWrap int
	// Timestamp is the ΔLRU timestamp: the latest wrapping round strictly
	// before the most recent multiple of D_ℓ, 0 if none (§3.1.1).
	Timestamp int

	// Instrumentation (not consulted by the algorithms).
	//
	// EpochsEnded counts eligible→ineligible transitions (completed
	// epochs, §3.2). Wraps counts counter wrapping events. TsUpdates
	// counts timestamp update events (§3.4).
	EpochsEnded int
	Wraps       int
	TsUpdates   int
}

// Tracker maintains the State of every color for one run.
type Tracker struct {
	delta     int
	threshold int
	delays    []int
	states    []State
	due       *container.IndexedHeap[sched.Color, int]

	// eligible is the eligible-color set kept as a sorted slice (the
	// "consistent order of colors" of §3.1.2 is its natural order).
	// Membership tests go through State.Eligible; the slice exists so
	// AppendEligible is a single allocation-free copy on the hot path
	// instead of a map iteration plus sort.
	eligible []sched.Color
	known    int

	// immediateTs (an ablation knob, not the paper's rule) makes the
	// timestamp advance at the wrapping event itself instead of at the
	// next multiple of D_ℓ.
	immediateTs bool

	// tsEvents records timestamp-update events as (round, color) pairs
	// when instrumentation is enabled; super-epoch analysis consumes it.
	recordTsEvents bool
	tsEvents       []TsEvent
	// epochEnds records (round, color) pairs for eligible→ineligible
	// transitions (epoch ends, §3.2) when instrumentation is enabled.
	epochEnds []TsEvent
}

// TsEvent is a timestamp update event: color C's timestamp changed in
// round Round (§3.4).
type TsEvent struct {
	Round int
	C     sched.Color
}

// New returns a tracker for numColors colors with reconfiguration cost
// delta and per-color delay bounds delays. The eligibility threshold (the
// counter value at which a color becomes eligible) defaults to Δ.
func New(delta int, delays []int) *Tracker {
	return NewWithThreshold(delta, delta, delays)
}

// NewWithThreshold is New with an explicit eligibility threshold; the
// threshold ablation uses values other than Δ.
func NewWithThreshold(delta, threshold int, delays []int) *Tracker {
	if threshold < 1 {
		threshold = 1
	}
	return &Tracker{
		delta:     delta,
		threshold: threshold,
		delays:    delays,
		states:    make([]State, len(delays)),
		due:       container.NewIndexedHeap[sched.Color, int](len(delays)),
	}
}

// RecordTsEvents enables recording of timestamp-update events for
// super-epoch analysis.
func (t *Tracker) RecordTsEvents() { t.recordTsEvents = true }

// SetImmediateTimestamps switches the timestamp rule to the "immediate"
// ablation variant: the timestamp advances at the wrapping event itself
// rather than waiting for the next multiple of D_ℓ.
func (t *Tracker) SetImmediateTimestamps(on bool) { t.immediateTs = on }

// Get returns a read-only view of color c's state.
func (t *Tracker) Get(c sched.Color) *State { return &t.states[c] }

// Delay returns the delay bound of color c.
func (t *Tracker) Delay(c sched.Color) int { return t.delays[c] }

// BeginRound applies the drop-phase and deadline rules for round k.
// cached reports whether a color is currently in the policy's cache (the
// configuration at the end of the previous round).
func (t *Tracker) BeginRound(k int, cached func(sched.Color) bool) {
	for {
		c, m, ok := t.due.Min()
		if !ok || m > k {
			break
		}
		t.due.Pop()
		st := &t.states[c]
		// Timestamp update: wrapping events strictly before the multiple m
		// become visible (§3.1.1). Wraps happen at arrival time, which is
		// after BeginRound within a round, so LastWrap < m here whenever
		// the wrap belongs to an earlier round.
		if st.LastWrap >= 0 && st.LastWrap < m && st.Timestamp != st.LastWrap {
			st.Timestamp = st.LastWrap
			st.TsUpdates++
			if t.recordTsEvents {
				t.tsEvents = append(t.tsEvents, TsEvent{Round: m, C: c})
			}
		}
		// Drop-phase rule: eligible and uncached colors turn ineligible
		// and reset their counter; this ends the color's current epoch.
		if st.Eligible && !cached(c) {
			st.Eligible = false
			st.Cnt = 0
			st.EpochsEnded++
			t.removeEligible(c)
			if t.recordTsEvents {
				t.epochEnds = append(t.epochEnds, TsEvent{Round: m, C: c})
			}
		}
		// Arrival-phase step 1: the color's deadline advances.
		st.Deadline = m + t.delays[c]
		t.due.Push(c, m+t.delays[c])
	}
}

// OnArrival applies arrival-phase steps 2–3 for count jobs of color c
// arriving in round k.
func (t *Tracker) OnArrival(k int, c sched.Color, count int) {
	st := &t.states[c]
	if !st.Known {
		t.register(k, c)
	}
	st.Cnt += count
	if st.Cnt >= t.threshold {
		st.Cnt %= t.threshold // counter wrapping event
		st.LastWrap = k
		st.Wraps++
		if t.immediateTs && st.Timestamp != k {
			st.Timestamp = k
			st.TsUpdates++
			if t.recordTsEvents {
				t.tsEvents = append(t.tsEvents, TsEvent{Round: k, C: c})
			}
		}
		if !st.Eligible {
			st.Eligible = true
			t.insertEligible(c)
		}
	}
}

// register introduces color c on its first arrival in round k: its
// deadline corresponds to the enclosing multiple of D_c and the tracker
// starts processing its multiples.
func (t *Tracker) register(k int, c sched.Color) {
	st := &t.states[c]
	st.Known = true
	st.LastWrap = -1
	t.known++
	d := t.delays[c]
	base := (k / d) * d
	st.Deadline = base + d
	t.due.Push(c, base+d)
}

// Eligible reports whether color c is eligible.
func (t *Tracker) Eligible(c sched.Color) bool { return t.states[c].Eligible }

// insertEligible adds c to the sorted eligible slice (binary search +
// shift; the set is small and the operation amortizes to nothing against
// the per-round sort it replaced).
func (t *Tracker) insertEligible(c sched.Color) {
	i := searchColor(t.eligible, c)
	t.eligible = append(t.eligible, 0)
	copy(t.eligible[i+1:], t.eligible[i:])
	t.eligible[i] = c
}

// removeEligible deletes c from the sorted eligible slice.
func (t *Tracker) removeEligible(c sched.Color) {
	i := searchColor(t.eligible, c)
	if i < len(t.eligible) && t.eligible[i] == c {
		t.eligible = append(t.eligible[:i], t.eligible[i+1:]...)
	}
}

// searchColor returns the insertion index of c in the sorted slice s.
func searchColor(s []sched.Color, c sched.Color) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AppendEligible appends the eligible colors to dst in increasing color
// order (the deterministic "consistent order of colors" of §3.1.2) and
// returns it. It performs no allocation once dst has capacity.
func (t *Tracker) AppendEligible(dst []sched.Color) []sched.Color {
	return append(dst, t.eligible...)
}

// NumEpochs reports numEpochs(σ) so far: for every known color, its
// completed epochs plus the current (possibly incomplete) one (§3.2).
func (t *Tracker) NumEpochs() int {
	n := 0
	for i := range t.states {
		if t.states[i].Known {
			n += t.states[i].EpochsEnded + 1
		}
	}
	return n
}

// TsEventLog returns the recorded timestamp-update events in order.
func (t *Tracker) TsEventLog() []TsEvent { return t.tsEvents }

// SuperEpochs partitions the recorded timestamp-update events into
// super-epochs (§3.4): a super-epoch ends the moment at least `width`
// colors have updated their timestamps since it started. It returns the
// number of complete super-epochs. RecordTsEvents must have been enabled.
func (t *Tracker) SuperEpochs(width int) int {
	return len(t.SuperEpochWindows(width))
}

// SuperEpochWindows returns the [start, end] round windows of the complete
// super-epochs for the given width (end = the round whose timestamp
// update completed the super-epoch). RecordTsEvents must have been
// enabled.
func (t *Tracker) SuperEpochWindows(width int) [][2]int {
	var out [][2]int
	seen := make(map[sched.Color]struct{})
	start := 0
	for _, ev := range t.tsEvents {
		seen[ev.C] = struct{}{}
		if len(seen) >= width {
			out = append(out, [2]int{start, ev.Round})
			seen = make(map[sched.Color]struct{})
			start = ev.Round
		}
	}
	return out
}

// EpochEndLog returns the recorded epoch-end events (round, color) in
// order. RecordTsEvents must have been enabled.
func (t *Tracker) EpochEndLog() []TsEvent { return t.epochEnds }

// trackerSnapVersion identifies the Tracker checkpoint layout.
const trackerSnapVersion = 1

// Snapshot appends the tracker's complete dynamic state to e, including
// the per-color states, the due-multiple heap (in exact internal order,
// so deadline ties resolve identically after restore) and any recorded
// instrumentation events. Configuration (Δ, threshold, delays, the
// timestamp-rule flag) is written only as a consistency fingerprint:
// Restore runs on a tracker freshly built with the same configuration.
func (t *Tracker) Snapshot(e *snap.Encoder) {
	e.Int(trackerSnapVersion)
	e.Int(t.delta)
	e.Int(t.threshold)
	e.Bool(t.immediateTs)
	e.Bool(t.recordTsEvents)
	e.Int(len(t.states))
	for i := range t.states {
		st := &t.states[i]
		e.Bool(st.Known)
		e.Int(st.Cnt)
		e.Int(st.Deadline)
		e.Bool(st.Eligible)
		e.Int(st.LastWrap)
		e.Int(st.Timestamp)
		e.Int(st.EpochsEnded)
		e.Int(st.Wraps)
		e.Int(st.TsUpdates)
	}
	e.Int(t.due.Len())
	t.due.Export(func(c sched.Color, m int) {
		e.Int(int(c))
		e.Int(m)
	})
	if t.recordTsEvents {
		snapshotEvents(e, t.tsEvents)
		snapshotEvents(e, t.epochEnds)
	}
}

func snapshotEvents(e *snap.Encoder, evs []TsEvent) {
	e.Int(len(evs))
	for _, ev := range evs {
		e.Int(ev.Round)
		e.Int(int(ev.C))
	}
}

// Restore rebuilds the tracker's dynamic state from d for a stream whose
// next round is round. The receiver must be freshly constructed with the
// same configuration the snapshot was taken under; any mismatch,
// truncation or inconsistency is reported as an error (never a panic).
// The eligible-color slice is reconstructed from the per-color
// eligibility bits, whose sorted order is canonical.
//
// A tracker that has begun every round before round holds, for each
// known color c, one due multiple: the multiple of D_c in
// [round, round+D_c−1], equal to the color's deadline. Restore requires
// exactly that, so BeginRound walks at most one multiple per color in a
// round; a due multiple far behind the round would make the first
// BeginRound walk every multiple in between.
func (t *Tracker) Restore(d *snap.Decoder, round int) error {
	if v := d.Int(); d.Err() == nil && v != trackerSnapVersion {
		d.Failf("colorstate: tracker snapshot version %d, this build reads %d", v, trackerSnapVersion)
	}
	if v := d.Int(); d.Err() == nil && v != t.delta {
		d.Failf("colorstate: snapshot Δ=%d, tracker has Δ=%d", v, t.delta)
	}
	if v := d.Int(); d.Err() == nil && v != t.threshold {
		d.Failf("colorstate: snapshot threshold %d, tracker has %d", v, t.threshold)
	}
	if v := d.Bool(); d.Err() == nil && v != t.immediateTs {
		d.Failf("colorstate: snapshot immediate-timestamp flag %v, tracker has %v", v, t.immediateTs)
	}
	if v := d.Bool(); d.Err() == nil && v != t.recordTsEvents {
		d.Failf("colorstate: snapshot event-recording flag %v, tracker has %v", v, t.recordTsEvents)
	}
	if n := d.Len(); d.Err() == nil && n != len(t.states) {
		d.Failf("colorstate: snapshot has %d colors, tracker has %d", n, len(t.states))
	}
	if err := d.Err(); err != nil {
		return err
	}
	t.known = 0
	t.eligible = t.eligible[:0]
	for i := range t.states {
		st := &t.states[i]
		st.Known = d.Bool()
		st.Cnt = d.Int()
		st.Deadline = d.Int()
		st.Eligible = d.Bool()
		st.LastWrap = d.Int()
		st.Timestamp = d.Int()
		st.EpochsEnded = d.Int()
		st.Wraps = d.Int()
		st.TsUpdates = d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if !st.Known && (st.Eligible || st.Cnt != 0) {
			return failf(d, "colorstate: color %d has state but is not known", i)
		}
		if st.Cnt < 0 || st.Cnt >= t.threshold && t.threshold > 0 {
			return failf(d, "colorstate: color %d has counter %d outside [0, %d)", i, st.Cnt, t.threshold)
		}
		if st.Known {
			t.known++
		}
		if st.Eligible {
			t.eligible = append(t.eligible, sched.Color(i))
		}
	}
	t.due.Clear()
	nd := d.Len()
	if d.Err() == nil && nd != t.known {
		d.Failf("colorstate: due heap has %d entries for %d known colors", nd, t.known)
	}
	if err := d.Err(); err != nil {
		return err
	}
	for k := 0; k < nd; k++ {
		c, m := d.Int(), d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if c < 0 || c >= len(t.states) || !t.states[c].Known {
			return failf(d, "colorstate: due heap names invalid color %d", c)
		}
		if dc := t.delays[c]; m < round || m-round >= dc || m%dc != 0 {
			return failf(d, "colorstate: color %d due at round %d, not the multiple of %d in [%d, %d], the window of a tracker at round %d",
				c, m, dc, round, round+dc-1, round)
		}
		if dl := t.states[c].Deadline; dl != m {
			return failf(d, "colorstate: color %d has deadline %d but is due at round %d", c, dl, m)
		}
		if !t.due.Import(sched.Color(c), m) {
			return failf(d, "colorstate: due heap repeats color %d", c)
		}
	}
	t.tsEvents, t.epochEnds = nil, nil
	if t.recordTsEvents {
		var err error
		if t.tsEvents, err = restoreEvents(d, len(t.states)); err != nil {
			return err
		}
		if t.epochEnds, err = restoreEvents(d, len(t.states)); err != nil {
			return err
		}
	}
	return d.Err()
}

func restoreEvents(d *snap.Decoder, numColors int) ([]TsEvent, error) {
	n := d.Len()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n == 0 {
		return nil, nil
	}
	evs := make([]TsEvent, n)
	for i := range evs {
		evs[i].Round = d.Int()
		c := d.Int()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if c < 0 || c >= numColors {
			return nil, failf(d, "colorstate: event %d names invalid color %d", i, c)
		}
		evs[i].C = sched.Color(c)
	}
	return evs, nil
}

// failf records the error on the decoder (so later reads stay inert)
// and returns it for immediate propagation.
func failf(d *snap.Decoder, format string, args ...any) error {
	d.Failf(format, args...)
	return d.Err()
}

// EpochsOverlapping counts, for color c, how many of its epochs intersect
// the round window [lo, hi]. An epoch spans from the end of the previous
// epoch (or round 0) to its own end; the final (possibly incomplete)
// epoch extends to +∞. Corollary 3.2 bounds this by 3 for complete
// super-epoch windows.
func (t *Tracker) EpochsOverlapping(c sched.Color, lo, hi int) int {
	prevEnd := 0
	n := 0
	for _, ev := range t.epochEnds {
		if ev.C != c {
			continue
		}
		// Epoch spans [prevEnd, ev.Round].
		if ev.Round >= lo && prevEnd <= hi {
			n++
		}
		prevEnd = ev.Round
	}
	// The open final epoch [prevEnd, ∞).
	if prevEnd <= hi && t.states[c].Known {
		n++
	}
	return n
}
