package sched

import (
	"fmt"

	"repro/internal/snap"
)

// SnapshotVersion identifies the layout of the state blob produced by
// Stream.Snapshot. Bump it on any incompatible change; RestoreStream
// rejects other versions. (The durable file container around the blob
// is versioned separately — see trace.WriteCheckpoint.)
const SnapshotVersion = 1

// Snapshotter is the checkpoint/restore capability of a Policy. Every
// policy shipped in this repository implements it; Stream.Snapshot
// requires it.
//
// The contract is deterministic resume: restoring a snapshot and
// feeding the same arrivals must reproduce the uninterrupted run's
// Result bit for bit, and re-snapshotting immediately after a restore
// must reproduce the snapshot bytes. That means SnapshotState must
// capture every piece of state that can influence future decisions
// (including RNG state and the exact order of history-dependent
// structures such as free lists and heap layouts), and must write
// map-backed state in a canonical order.
type Snapshotter interface {
	// SnapshotState appends the policy's complete dynamic state to e.
	SnapshotState(e *snap.Encoder)
	// RestoreState rebuilds that state from d. It is invoked on a policy
	// that has just been Reset with the same Env the snapshot was taken
	// under, and must validate what it reads, reporting corrupt or
	// inconsistent input as an error — never a panic. round is the
	// restored stream's round, the index of the next round it will
	// simulate, which the engine state has already been checked against:
	// state tied to rounds (a due multiple, a deadline) must lie in the
	// window a live stream at that round holds, or the first rounds
	// after the restore could do unbounded work.
	RestoreState(d *snap.Decoder, round int) error
}

// Snapshot serializes the stream's complete state — configuration,
// round engine, pending-job pool, cost ledger and policy — into a
// self-contained blob that RestoreStream can later rebuild a live
// stream from. Wrap the blob with trace.WriteCheckpoint to store it
// durably (length-prefixed, versioned, checksummed).
//
// The policy must implement Snapshotter. Snapshotting is read-only: it
// does not disturb the stream, which may keep stepping afterward. An
// attached Probe is not part of the state — observability sinks are
// reattached explicitly on restore.
func (s *Stream) Snapshot() ([]byte, error) {
	return s.AppendSnapshot(nil)
}

// AppendSnapshot is Snapshot writing into caller-owned storage: the
// blob is appended onto dst (which may be nil or a recycled buffer —
// pass buf[:0]) and the extended slice is returned. A caller that
// recycles the returned buffer across checkpoints reaches a
// steady state where snapshotting allocates nothing, which is what
// keeps the serve tier's per-round checkpoint path flat (see
// docs/PERFORMANCE.md). The returned slice is caller-owned; the
// stream retains no reference to it.
func (s *Stream) AppendSnapshot(dst []byte) ([]byte, error) {
	sn, ok := s.eng.pol.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sched: policy %s does not implement Snapshotter", s.eng.pol.Name())
	}
	e := &s.snapEnc
	e.Attach(dst)
	e.Int(SnapshotVersion)
	e.Int(s.cfg.N)
	e.Int(s.cfg.Speed)
	e.Int(s.cfg.Delta)
	e.Ints(s.cfg.Delays)
	e.String(s.eng.pol.Name())
	s.eng.snapshotState(e)
	sn.SnapshotState(e)
	out := e.Bytes()
	e.Attach(nil) // release: the buffer is caller-owned from here on
	return out, nil
}

// PeekSnapshot decodes just the configuration header of a
// Stream.Snapshot blob — the StreamConfig it was taken under and the
// name of its policy — without rebuilding the stream. Servers restoring
// many tenants use it to size observability sinks and validate metadata
// before paying for the full RestoreStream. The header is checked as
// RestoreStream checks it; corrupt input yields an error, never a panic.
func PeekSnapshot(snapshot []byte) (cfg StreamConfig, policyName string, err error) {
	return decodeHeader(snap.NewDecoder(snapshot))
}

// decodeHeader reads a snapshot's version and configuration header from
// d and checks the configuration (checkConfig), so a corrupt header
// fails before anything is sized from it. A snapshot always records
// Speed ≥ 1, so Speed 0 is refused here rather than defaulted.
func decodeHeader(d *snap.Decoder) (cfg StreamConfig, policyName string, err error) {
	if v := d.Int(); d.Err() == nil && v != SnapshotVersion {
		return StreamConfig{}, "", fmt.Errorf("sched: snapshot version %d, this build reads %d", v, SnapshotVersion)
	}
	cfg.N = d.Int()
	cfg.Speed = d.Int()
	cfg.Delta = d.Int()
	cfg.Delays = d.Ints()
	policyName = d.String()
	if err := d.Err(); err != nil {
		return StreamConfig{}, "", err
	}
	if err := checkConfig(cfg); err != nil {
		return StreamConfig{}, "", err
	}
	return cfg, policyName, nil
}

// RestoreStream rebuilds a live Stream from a Snapshot blob. pol must
// be a fresh policy of the same type (matched by Name) that produced
// the snapshot; probe, which is not serialized, is attached to the
// restored stream (nil for none). The restored stream continues
// exactly where the snapshot was taken: stepping it through the same
// arrivals yields a Result bit-identical to the uninterrupted run.
//
// Corrupt, truncated or mismatched input is reported as an error,
// never a panic.
func RestoreStream(pol Policy, snapshot []byte, probe Probe) (st *Stream, err error) {
	// Validation below catches every corruption the tests construct, but
	// policy Reset/Restore implementations are entitled to panic on
	// impossible configurations; a snapshot is untrusted input, so the
	// restore path converts any such panic into an error.
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("sched: restoring snapshot: panic: %v", r)
		}
	}()
	d := snap.NewDecoder(snapshot)
	cfg, name, err := decodeHeader(d)
	if err != nil {
		return nil, err
	}
	if name != pol.Name() {
		return nil, fmt.Errorf("sched: snapshot was taken with policy %q, restore given %q", name, pol.Name())
	}
	cfg.Probe = probe
	st, err = NewStream(pol, cfg)
	if err != nil {
		return nil, err
	}
	if err := st.eng.restoreState(d); err != nil {
		return nil, err
	}
	sn, ok := pol.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sched: policy %s does not implement Snapshotter", pol.Name())
	}
	if err := sn.RestoreState(d, st.eng.round); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// snapshotState appends the engine's dynamic state: round counter, cost
// ledger with per-color breakdowns, current configuration and the
// pending-job pool. The policy name inside res is derived (Run and
// RestoreStream set it from the policy) and is not repeated here.
func (e *roundEngine) snapshotState(enc *snap.Encoder) {
	enc.Int(e.round)
	enc.Int64(e.res.Cost.Reconfig)
	enc.Int64(e.res.Cost.Drop)
	enc.Int(e.res.Executed)
	enc.Int(e.res.Dropped)
	enc.Int(e.res.Reconfigs)
	enc.Int(e.res.Rounds)
	enc.Ints(e.res.DropsByColor)
	enc.Ints(e.res.ExecByColor)
	enc.Int(len(e.cur))
	for _, c := range e.cur {
		enc.Int(int(c))
	}
	e.pool.snapshotState(enc)
}

// restoreState rebuilds the engine from d; the engine must be freshly
// constructed (as NewStream leaves it) for the same environment.
func (e *roundEngine) restoreState(d *snap.Decoder) error {
	e.round = d.Int()
	e.res.Cost.Reconfig = d.Int64()
	e.res.Cost.Drop = d.Int64()
	e.res.Executed = d.Int()
	e.res.Dropped = d.Int()
	e.res.Reconfigs = d.Int()
	e.res.Rounds = d.Int()
	drops := d.Ints()
	execs := d.Ints()
	nc := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	if e.round < 0 || e.res.Rounds != e.round {
		d.Failf("sched: snapshot round %d inconsistent with rounds %d", e.round, e.res.Rounds)
		return d.Err()
	}
	if len(drops) != e.numColors || len(execs) != e.numColors {
		d.Failf("sched: snapshot has %d/%d per-color entries for %d colors", len(drops), len(execs), e.numColors)
		return d.Err()
	}
	sumDrops, sumExecs := 0, 0
	for c := 0; c < e.numColors; c++ {
		if drops[c] < 0 || execs[c] < 0 {
			d.Failf("sched: negative per-color count for color %d", c)
			return d.Err()
		}
		sumDrops += drops[c]
		sumExecs += execs[c]
	}
	if sumDrops != e.res.Dropped || sumExecs != e.res.Executed {
		d.Failf("sched: per-color breakdowns (%d dropped, %d executed) do not sum to totals (%d, %d)",
			sumDrops, sumExecs, e.res.Dropped, e.res.Executed)
		return d.Err()
	}
	copy(e.res.DropsByColor, drops)
	copy(e.res.ExecByColor, execs)
	if nc != e.env.N {
		d.Failf("sched: snapshot configuration covers %d locations, engine has %d", nc, e.env.N)
		return d.Err()
	}
	for k := range e.cur {
		c := Color(d.Int())
		if d.Err() != nil {
			return d.Err()
		}
		if c != NoColor && (c < 0 || int(c) >= e.numColors) {
			d.Failf("sched: location %d configured with invalid color %d", k, c)
			return d.Err()
		}
		e.cur[k] = c
	}
	return e.pool.restoreState(d, e.round, e.env.Delays)
}

// snapshotState appends the pool's pending buckets per color plus the
// earliest-deadline heap in exact internal order (preserving the layout
// keeps deadline-tie processing identical after restore).
func (p *jobPool) snapshotState(enc *snap.Encoder) {
	enc.Int(len(p.queues))
	for i := range p.queues {
		p.snapScratch = p.queues[i].Buckets(p.snapScratch[:0])
		enc.Int(len(p.snapScratch))
		for _, b := range p.snapScratch {
			enc.Int(b.Deadline)
			enc.Int(b.Count)
		}
	}
	enc.Int(p.dl.Len())
	p.dl.Export(func(c Color, dl int) {
		enc.Int(int(c))
		enc.Int(dl)
	})
}

// restoreState rebuilds the pool of a stream at round r with the given
// delay bounds from d; the pool must be empty (as newJobPool leaves it).
// Bucket sequences are validated — positive counts, strictly increasing
// deadlines inside the window [r, r+D_c−1] a live stream holds (round
// r−1 dropped every deadline ≤ r−1 and enqueued its arrivals at
// r−1+D_c) — before being replayed, and the heap is cross-checked
// against the rebuilt queues, so corrupt input yields an error, never a
// panic or a silently broken pool.
func (p *jobPool) restoreState(d *snap.Decoder, r int, delays []int) error {
	nq := d.Len()
	if d.Err() == nil && nq != len(p.queues) {
		d.Failf("sched: snapshot pool has %d colors, engine has %d", nq, len(p.queues))
	}
	if err := d.Err(); err != nil {
		return err
	}
	p.total = 0
	nonEmpty := 0
	for i := 0; i < nq; i++ {
		nb := d.Len()
		if d.Err() != nil {
			return d.Err()
		}
		prev := -1 << 62
		for j := 0; j < nb; j++ {
			deadline, count := d.Int(), d.Int()
			if d.Err() != nil {
				return d.Err()
			}
			if count <= 0 {
				d.Failf("sched: pool color %d bucket %d has count %d", i, j, count)
				return d.Err()
			}
			if deadline <= prev {
				d.Failf("sched: pool color %d deadlines not strictly increasing at bucket %d", i, j)
				return d.Err()
			}
			if deadline < r || deadline > r+delays[i]-1 {
				d.Failf("sched: pool color %d deadline %d outside [%d, %d], the window of a stream at round %d",
					i, deadline, r, r+delays[i]-1, r)
				return d.Err()
			}
			p.queues[i].Add(deadline, count)
			p.total += count
			prev = deadline
		}
		if nb > 0 {
			nonEmpty++
		}
	}
	nh := d.Len()
	if d.Err() == nil && nh != nonEmpty {
		d.Failf("sched: deadline heap has %d entries for %d non-empty colors", nh, nonEmpty)
	}
	if err := d.Err(); err != nil {
		return err
	}
	for k := 0; k < nh; k++ {
		c, dl := d.Int(), d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if c < 0 || c >= len(p.queues) {
			d.Failf("sched: deadline heap names invalid color %d", c)
			return d.Err()
		}
		earliest, ok := p.queues[c].EarliestDeadline()
		if !ok || earliest != dl {
			d.Failf("sched: deadline heap entry (%d, %d) disagrees with queue", c, dl)
			return d.Err()
		}
		if !p.dl.Import(Color(c), dl) {
			d.Failf("sched: deadline heap repeats color %d", c)
			return d.Err()
		}
	}
	return nil
}
