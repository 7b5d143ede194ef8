// Checkpoint/restore (sched.Snapshotter) implementations for every
// policy in this package. Shared conventions:
//
//   - Each policy writes a small version tag first, so layout changes
//     are detected instead of misparsed.
//   - RestoreState is always invoked on a policy freshly Reset with the
//     Env the snapshot was taken under (sched.RestoreStream guarantees
//     this); static derived state therefore already exists and only the
//     dynamic state is serialized. Its round argument, the restored
//     stream's next round, bounds the tracker's due multiples.
//   - Everything read back is validated; corrupt input surfaces as an
//     error via the decoder, never a panic.
//   - Per-round scratch buffers (scratch, cachedScratch, …) are cleared
//     before use each round and carry no state, so they are not
//     serialized.
package policy

import (
	"slices"

	"repro/internal/sched"
	"repro/internal/snap"
)

const (
	dlruSnapVersion       = 1
	edfSnapVersion        = 1
	seqEDFSnapVersion     = 1
	staticSnapVersion     = 1
	neverSnapVersion      = 1
	greedySnapVersion     = 1
	randomSnapVersion     = 1
	hysteresisSnapVersion = 1
)

// Compile-time checks that every policy implements sched.Snapshotter.
var (
	_ sched.Snapshotter = (*DLRU)(nil)
	_ sched.Snapshotter = (*EDF)(nil)
	_ sched.Snapshotter = (*SeqEDF)(nil)
	_ sched.Snapshotter = (*Static)(nil)
	_ sched.Snapshotter = (*Never)(nil)
	_ sched.Snapshotter = (*GreedyPending)(nil)
	_ sched.Snapshotter = (*RandomEvict)(nil)
	_ sched.Snapshotter = (*Hysteresis)(nil)
)

func checkVersion(d *snap.Decoder, got, want int, what string) bool {
	if d.Err() != nil {
		return false
	}
	if got != want {
		d.Failf("policy: %s snapshot version %d, this build reads %d", what, got, want)
		return false
	}
	return true
}

// SnapshotState implements sched.Snapshotter.
func (p *DLRU) SnapshotState(e *snap.Encoder) {
	e.Int(dlruSnapVersion)
	p.tr.Snapshot(e)
	p.cache.Snapshot(e)
}

// RestoreState implements sched.Snapshotter.
func (p *DLRU) RestoreState(d *snap.Decoder, round int) error {
	if !checkVersion(d, d.Int(), dlruSnapVersion, "DLRU") {
		return d.Err()
	}
	if err := p.tr.Restore(d, round); err != nil {
		return err
	}
	return p.cache.Restore(d)
}

// SnapshotState implements sched.Snapshotter.
func (p *EDF) SnapshotState(e *snap.Encoder) {
	e.Int(edfSnapVersion)
	p.tr.Snapshot(e)
	p.cache.Snapshot(e)
}

// RestoreState implements sched.Snapshotter.
func (p *EDF) RestoreState(d *snap.Decoder, round int) error {
	if !checkVersion(d, d.Int(), edfSnapVersion, "EDF") {
		return d.Err()
	}
	if err := p.tr.Restore(d, round); err != nil {
		return err
	}
	return p.cache.Restore(d)
}

// SnapshotState implements sched.Snapshotter. The pure flag needs no
// explicit field: it determines both Name (checked by RestoreStream)
// and the tracker's eligibility threshold (checked by Tracker.Restore).
func (p *SeqEDF) SnapshotState(e *snap.Encoder) {
	e.Int(seqEDFSnapVersion)
	p.tr.Snapshot(e)
	p.cache.Snapshot(e)
}

// RestoreState implements sched.Snapshotter.
func (p *SeqEDF) RestoreState(d *snap.Decoder, round int) error {
	if !checkVersion(d, d.Int(), seqEDFSnapVersion, "SeqEDF") {
		return d.Err()
	}
	if err := p.tr.Restore(d, round); err != nil {
		return err
	}
	return p.cache.Restore(d)
}

// SnapshotState implements sched.Snapshotter. Static carries no dynamic
// state: its assignment is rebuilt by Reset, and its color list is part
// of its Name, which RestoreStream matches against the snapshot.
func (p *Static) SnapshotState(e *snap.Encoder) { e.Int(staticSnapVersion) }

// RestoreState implements sched.Snapshotter.
func (p *Static) RestoreState(d *snap.Decoder, round int) error {
	checkVersion(d, d.Int(), staticSnapVersion, "Static")
	return d.Err()
}

// SnapshotState implements sched.Snapshotter. Never is stateless.
func (p *Never) SnapshotState(e *snap.Encoder) { e.Int(neverSnapVersion) }

// RestoreState implements sched.Snapshotter.
func (p *Never) RestoreState(d *snap.Decoder, round int) error {
	checkVersion(d, d.Int(), neverSnapVersion, "Never")
	return d.Err()
}

// SnapshotState implements sched.Snapshotter. GreedyPending rebuilds
// its desired set from pending counts every round, but the cache's slot
// and free-stack layout is history it must keep.
func (p *GreedyPending) SnapshotState(e *snap.Encoder) {
	e.Int(greedySnapVersion)
	p.cache.Snapshot(e)
}

// RestoreState implements sched.Snapshotter.
func (p *GreedyPending) RestoreState(d *snap.Decoder, round int) error {
	if !checkVersion(d, d.Int(), greedySnapVersion, "GreedyPending") {
		return d.Err()
	}
	return p.cache.Restore(d)
}

// SnapshotState implements sched.Snapshotter. The RNG's internal state
// is part of the checkpoint: a restored run must draw the same victims
// the uninterrupted run would.
func (p *RandomEvict) SnapshotState(e *snap.Encoder) {
	e.Int(randomSnapVersion)
	p.tr.Snapshot(e)
	p.cache.Snapshot(e)
	e.Uint64(p.rng.State())
}

// RestoreState implements sched.Snapshotter.
func (p *RandomEvict) RestoreState(d *snap.Decoder, round int) error {
	if !checkVersion(d, d.Int(), randomSnapVersion, "RandomEvict") {
		return d.Err()
	}
	if err := p.tr.Restore(d, round); err != nil {
		return err
	}
	if err := p.cache.Restore(d); err != nil {
		return err
	}
	state := d.Uint64()
	if err := d.Err(); err != nil {
		return err
	}
	p.rng.SetState(state)
	return nil
}

// SnapshotState implements sched.Snapshotter. Every cached color's
// credit is written in ascending color order so identical states
// serialize to identical bytes, whatever slots the colors sit in.
func (p *Hysteresis) SnapshotState(e *snap.Encoder) {
	e.Int(hysteresisSnapVersion)
	e.Float64(p.theta)
	p.cache.Snapshot(e)
	keys := p.cache.Colors(p.cachedScratch[:0])
	slices.Sort(keys)
	e.Int(len(keys))
	for _, c := range keys {
		e.Int(int(c))
		e.Int(p.credit[c])
	}
	p.cachedScratch = keys[:0]
}

// RestoreState implements sched.Snapshotter.
func (p *Hysteresis) RestoreState(d *snap.Decoder, round int) error {
	if !checkVersion(d, d.Int(), hysteresisSnapVersion, "Hysteresis") {
		return d.Err()
	}
	if th := d.Float64(); d.Err() == nil && th != p.theta {
		d.Failf("policy: snapshot Hysteresis theta %v, this policy has %v", th, p.theta)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := p.cache.Restore(d); err != nil {
		return err
	}
	n := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	// Credits exist for exactly the cached colors, never go negative,
	// and are serialized in strictly ascending color order.
	if n != p.cache.Len() {
		d.Failf("policy: %d credit entries for %d cached colors", n, p.cache.Len())
		return d.Err()
	}
	clear(p.credit)
	prev := sched.Color(-1)
	for i := 0; i < n; i++ {
		c := sched.Color(d.Int())
		v := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if c <= prev || v < 0 || !p.cache.Contains(c) {
			d.Failf("policy: invalid credit entry (color %d, credit %d)", c, v)
			return d.Err()
		}
		p.credit[c] = v
		prev = c
	}
	return nil
}
