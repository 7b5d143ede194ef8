package core

import (
	"repro/internal/sched"
	"repro/internal/snap"
)

// dlruedfSnapVersion identifies the ΔLRU-EDF checkpoint layout.
const dlruedfSnapVersion = 1

var _ sched.Snapshotter = (*DLRUEDF)(nil)

// SnapshotState implements sched.Snapshotter. Beyond the tracker and the
// cache it covers the drop classification counters, the live LRU share
// (mutable when the adaptive split is on) and — for the adaptive
// controller — the cost EWMAs plus the previous round's counts and cache
// content the next adaptTick will consume. The per-round scratch
// (lruMark, scratchA/B/C, rank) is rebuilt from zero each round and is
// not state. prevCache is written as its marked colors in ascending order.
func (d *DLRUEDF) SnapshotState(e *snap.Encoder) {
	e.Int(dlruedfSnapVersion)
	d.tr.Snapshot(e)
	d.cache.Snapshot(e)
	e.Int64(d.eligibleDrops)
	e.Int64(d.ineligibleDrops)
	e.Float64(d.lruShare)
	e.Int(d.roundDrops)
	e.Int(d.roundReconfigs)
	e.Bool(d.adaptive != nil)
	if d.adaptive != nil {
		e.Float64(d.adaptive.reconfigEWMA)
		e.Float64(d.adaptive.dropEWMA)
		n := 0
		for _, marked := range d.prevCache {
			if marked {
				n++
			}
		}
		e.Int(n)
		for c, marked := range d.prevCache {
			if marked {
				e.Int(c)
			}
		}
	}
}

// RestoreState implements sched.Snapshotter.
func (d *DLRUEDF) RestoreState(dec *snap.Decoder, round int) error {
	if v := dec.Int(); dec.Err() == nil && v != dlruedfSnapVersion {
		dec.Failf("core: ΔLRU-EDF snapshot version %d, this build reads %d", v, dlruedfSnapVersion)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if err := d.tr.Restore(dec, round); err != nil {
		return err
	}
	if err := d.cache.Restore(dec); err != nil {
		return err
	}
	eligDrops := dec.Int64()
	ineligDrops := dec.Int64()
	share := dec.Float64()
	roundDrops := dec.Int()
	roundReconfigs := dec.Int()
	adaptive := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if eligDrops < 0 || ineligDrops < 0 || roundDrops < 0 || roundReconfigs < 0 {
		dec.Failf("core: negative drop/reconfig counters in snapshot")
		return dec.Err()
	}
	if adaptive != (d.adaptive != nil) {
		dec.Failf("core: snapshot adaptive-split flag %v, this policy has %v", adaptive, d.adaptive != nil)
		return dec.Err()
	}
	if !adaptive && share != d.lruShare {
		dec.Failf("core: snapshot LRU share %v, this policy is fixed at %v", share, d.lruShare)
		return dec.Err()
	}
	if share < 0 || share > 1 {
		dec.Failf("core: snapshot LRU share %v outside [0, 1]", share)
		return dec.Err()
	}
	d.eligibleDrops, d.ineligibleDrops = eligDrops, ineligDrops
	d.roundDrops, d.roundReconfigs = roundDrops, roundReconfigs
	d.lruShare = share
	// Quotas are a pure function of the share (Reset and adaptTick both
	// derive them the same way), so they are recomputed, not serialized.
	cap := d.cache.Capacity()
	d.lruQuota = int(float64(cap) * share)
	if d.lruQuota < 0 {
		d.lruQuota = 0
	}
	if d.lruQuota > cap {
		d.lruQuota = cap
	}
	d.edfQuota = cap - d.lruQuota
	if adaptive {
		d.adaptive.reconfigEWMA = dec.Float64()
		d.adaptive.dropEWMA = dec.Float64()
		n := dec.Len()
		if err := dec.Err(); err != nil {
			return err
		}
		clear(d.prevCache)
		prev := sched.Color(-1)
		for i := 0; i < n; i++ {
			c := sched.Color(dec.Int())
			if dec.Err() != nil {
				return dec.Err()
			}
			if c <= prev || int(c) >= len(d.env.Delays) {
				dec.Failf("core: invalid previous-cache color %d in snapshot", c)
				return dec.Err()
			}
			d.prevCache[c] = true
			prev = c
		}
	}
	return nil
}
