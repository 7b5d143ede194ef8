// Package ckptlog is the group-commit checkpoint log: the durability
// backend of the serve tier (docs/CHECKPOINT.md
// "Group-commit log"). Checkpoint blobs from every tenant on a shard
// are appended to one shared, CRC-framed segment file, and a single
// background committer turns any number of appends into one fsync per
// commit interval — the batching that collapses the serve tier's
// fsyncs/round from ~1 to ~1/batch. The committer fsyncs with the log's
// lock released, so an append waits on the disk only when it rotates the
// segment. Segments rotate at a size bound.
// The log counts, per segment, the records still live (each tenant's
// latest record, whatever its kind); at every rotation it deletes the
// sealed segments holding none, wherever they sit, and rewrites the
// live records out of the oldest segments beyond a bound, so disk use
// and recovery work track live state, not history.
//
// On-disk layout, one directory per shard:
//
//	log-00000001.seg   sealed segment (rotated out, never written again)
//	log-00000002.seg   …
//	log-00000003.seg   active segment (append-only)
//
// Every segment starts with an 8-byte header — magic "RRLG", then a
// fixed-width little-endian uint32 format version — followed by
// records framed as
//
//	uint32 LE payload length | payload | uint32 LE CRC-32 (IEEE) of payload
//
// with the payload itself encoded by internal/snap: kind (uvarint),
// tenant ID (string), round, delta base round (stored, never read),
// then the blob. Records are self-describing and self-checking;
// recovery is a single forward scan of all segments in sequence order,
// last record per tenant wins (append order, not round numbers — a
// tenant closed and re-opened legitimately restarts at round 0). A torn
// or corrupt record, or one of an unknown kind, in the final segment
// marks the crash point: recovery logs it loudly, keeps everything
// before it and cuts the tail off the file before sealing it, so the
// next recovery reads that segment clean. Corruption in a
// sealed segment cannot be explained by a crash mid-append and is
// reported as an error.
//
// The first failed write or fsync is sticky: from then on every
// Append, Sync and Close returns it and nothing is written again, since
// a retry could duplicate bytes mid-segment or report durability for
// pages the kernel already dropped. That error, like every error from a
// closed log, wraps ErrFailed.
//
// The log stores three record kinds: KindFull (a complete snapshot),
// KindDelta (a delta against an earlier full record, which only older
// builds and the benchmark's replay write), and KindTombstone (the
// tenant was closed; earlier records must not resurrect). A tenant's
// latest record is its whole state: Latest returns a full record's
// blob, reports no record after a tombstone, and refuses a delta by
// name rather than resolve it.
package ckptlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snap"
)

// Kind discriminates checkpoint-log record types.
type Kind int

// Record kinds. KindFull carries a complete snapshot blob, KindDelta a
// binary delta against an earlier KindFull record, which the log stores
// and compacts like any record but never resolves, and KindTombstone
// marks the tenant closed (blob empty).
const (
	KindFull Kind = iota
	KindDelta
	KindTombstone
)

// known reports whether k is one of the record kinds above.
func (k Kind) known() bool { return KindFull <= k && k <= KindTombstone }

const (
	segMagic   = "RRLG"
	segVersion = 1
	segHeader  = 8 // magic + uint32 version
	frameOver  = 8 // uint32 length + uint32 CRC around each payload

	// maxPayload bounds the declared record length so a corrupt frame
	// cannot trigger an unbounded allocation during recovery.
	maxPayload = 1 << 30
)

// ErrFailed is wrapped by every error the log returns once it can take
// no more writes: its sticky write or sync failure, and any use after
// Close or Abort. errors.Is(err, ErrFailed) tells a dead log from a
// rejected record.
var ErrFailed = errors.New("ckptlog: log failed")

// Options configures Open.
type Options struct {
	// Dir is the directory holding the segment files. It must exist.
	Dir string
	// CommitInterval bounds how long an appended record may sit in the
	// OS before the committer fsyncs it — the durability latency of
	// group commit. Default 2ms.
	CommitInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Default 4 MiB.
	SegmentBytes int64
	// CompactSegments is the number of sealed segments tolerated before
	// the compactor rewrites live records out of the oldest one. Sealed
	// segments holding no live record are deleted at every rotation, so
	// it bounds the segments pinned by live records. Default 4.
	CompactSegments int
	// Logf, when non-nil, receives recovery diagnostics (torn tails,
	// discarded records). Default: silent.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.CommitInterval <= 0 {
		o.CommitInterval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Appends counts records appended (all kinds).
	Appends int64
	// Bytes counts framed bytes appended.
	Bytes int64
	// Fsyncs counts file syncs issued — the number the group commit
	// exists to minimize. Rotations and Compactions count segment
	// rollovers and compaction passes.
	Fsyncs      int64
	Rotations   int64
	Compactions int64
	// Segments is the current on-disk segment count (sealed + active).
	Segments int
}

// recordRef locates one record's payload inside a segment.
type recordRef struct {
	seg int   // segment sequence number
	off int64 // offset of the payload (past the length word)
	n   int   // payload length
}

// tenantState is the index entry per tenant: where its latest record
// lives, of whatever kind, and the round it records.
type tenantState struct {
	ref   recordRef
	round int
	kind  Kind
}

// segment is one sealed, read-only segment file.
type segment struct {
	seq  int
	path string
	f    *os.File
}

// Log is a group-commit checkpoint log over one directory. All methods
// are safe for concurrent use.
type Log struct {
	opt Options

	mu        sync.Mutex
	sealed    []*segment // ascending seq
	active    *os.File
	activeSeq int
	activeOff int64 // header + flushed + buffered bytes
	wbuf      []byte
	dirty     bool // bytes written to the file since the last fsync began
	index     map[string]tenantState
	closed    bool
	// live counts, per segment sequence number, the tenants whose latest
	// record lies in that segment; setLocked keeps it current. A sealed
	// segment at zero holds only superseded records.
	live map[int]int
	// err is the log's first write or sync failure. It is sticky (see
	// failLocked): once set, nothing is written again.
	err error

	// syncMu is held by whoever fsyncs the active segment: the committer,
	// which takes it under mu and fsyncs with mu released (commit), and
	// every commit made under mu (commitLocked). So fsyncs never overlap,
	// and a commit under mu that finds the committer's fsync in flight
	// waits for it without releasing mu. syncErr, guarded by syncMu, is
	// the committer's failed fsync, for such a commit to see before the
	// committer has re-taken mu to record it.
	syncMu  sync.Mutex
	syncErr error

	enc snap.Encoder // payload scratch, reused under mu

	done chan struct{}
	wg   sync.WaitGroup

	appends     atomic.Int64
	bytes       atomic.Int64
	flushes     atomic.Int64 // non-empty write-buffer flushes (Flushes)
	fsyncs      atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64
	// segments mirrors the on-disk segment count (sealed + active) so
	// that Stats never takes mu, which a rotation holds across its fsync
	// and compaction. countSegmentsLocked keeps it current.
	segments atomic.Int64
}

// Open scans dir for existing segments, rebuilds the tenant index,
// seals every existing segment, opens a fresh active segment and
// starts the background committer. A torn tail in the newest segment
// (the signature of a crash mid-commit) is logged via Options.Logf and
// cut from the file; corruption anywhere else fails Open. The newest
// segment is fsynced as it is sealed, so every sealed segment is
// durable before compaction deletes a record it supersedes.
func Open(opt Options) (*Log, error) {
	opt.fill()
	l := &Log{
		opt:   opt,
		index: make(map[string]tenantState),
		live:  make(map[int]int),
		done:  make(chan struct{}),
	}
	names, err := filepath.Glob(filepath.Join(opt.Dir, "log-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	maxSeq := 0
	for i, name := range names {
		seq, err := segSeq(name)
		if err != nil {
			return nil, err
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		if err := l.scanSegment(name, seq, i == len(names)-1); err != nil {
			for _, s := range l.sealed {
				s.f.Close()
			}
			return nil, err
		}
	}
	if err := l.openActive(maxSeq + 1); err != nil {
		for _, s := range l.sealed {
			s.f.Close()
		}
		return nil, err
	}
	l.wg.Add(1)
	go l.committer()
	return l, nil
}

func segName(seq int) string { return fmt.Sprintf("log-%08d.seg", seq) }

func segSeq(path string) (int, error) {
	var seq int
	if _, err := fmt.Sscanf(filepath.Base(path), "log-%d.seg", &seq); err != nil {
		return 0, fmt.Errorf("ckptlog: segment name %q: %w", filepath.Base(path), err)
	}
	return seq, nil
}

// scanSegment reads one existing segment, folds its records into the
// index and appends it to the sealed list. last marks the newest
// segment, the only place a torn tail is a normal crash signature.
func (l *Log) scanSegment(path string, seq int, last bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < segHeader {
		// A crash can tear the header of a just-created segment; that is
		// only survivable for the newest one.
		if !last {
			return fmt.Errorf("ckptlog: %s: truncated segment header in a sealed segment", filepath.Base(path))
		}
		if len(data) > 0 && string(data[:min(4, len(data))]) != segMagic[:min(4, len(data))] {
			return fmt.Errorf("ckptlog: %s: not a checkpoint-log segment", filepath.Base(path))
		}
		l.opt.Logf("ckptlog: recovery: %s: torn segment header (%d bytes); discarding (crash at creation)",
			filepath.Base(path), len(data))
		return l.sealNewest(path, seq, 0)
	}
	if string(data[:4]) != segMagic {
		return fmt.Errorf("ckptlog: %s: not a checkpoint-log segment", filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
		return fmt.Errorf("ckptlog: %s: segment version %d, this build reads %d", filepath.Base(path), v, segVersion)
	}
	off := int64(segHeader)
	for int(off) < len(data) {
		rest := data[off:]
		bad := ""
		var payload []byte
		if len(rest) < 4 {
			bad = "torn length word"
		} else {
			n := binary.LittleEndian.Uint32(rest)
			if int64(n) > maxPayload {
				bad = fmt.Sprintf("implausible record length %d", n)
			} else if len(rest) < 4+int(n)+4 {
				bad = fmt.Sprintf("torn record (%d of %d payload+CRC bytes)", len(rest)-4, int(n)+4)
			} else {
				payload = rest[4 : 4+n]
				want := binary.LittleEndian.Uint32(rest[4+n:])
				if got := crc32.ChecksumIEEE(payload); got != want {
					bad = fmt.Sprintf("record CRC %08x, stored %08x", got, want)
				}
			}
		}
		if bad == "" {
			if err := l.indexRecord(seq, off+4, payload); err != nil {
				bad = err.Error()
			}
		}
		if bad != "" {
			if !last {
				return fmt.Errorf("ckptlog: %s: %s at offset %d in a sealed segment", filepath.Base(path), bad, off)
			}
			l.opt.Logf("ckptlog: recovery: %s: %s at offset %d; discarding the tail (crash mid-commit)",
				filepath.Base(path), bad, off)
			return l.sealNewest(path, seq, off)
		}
		off += 4 + int64(len(payload)) + 4
	}
	if last {
		return l.sealNewest(path, seq, off)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	l.sealed = append(l.sealed, &segment{seq: seq, path: path, f: f})
	return nil
}

// sealNewest seals the newest segment, whose records end at off: the
// file is cut back to off (a torn header is rewritten whole) and
// fsynced first. Sealing torn bytes instead would fail the next
// recovery, which no longer sees this segment as the newest and so
// reads the same tail as corruption. The fsync covers a clean segment
// too: the crashed writer may have left its last records unsynced, and
// they must be durable before a rotation deletes what they supersede.
func (l *Log) sealNewest(path string, seq int, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if off < segHeader {
		hdr := segmentHeader()
		_, err = f.WriteAt(hdr[:], 0)
		off = segHeader
	}
	if err == nil {
		err = f.Truncate(off)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("ckptlog: sealing %s: %w", filepath.Base(path), err)
	}
	l.sealed = append(l.sealed, &segment{seq: seq, path: path, f: f})
	return nil
}

func segmentHeader() (hdr [segHeader]byte) {
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	return hdr
}

// indexRecord folds one decoded record into the tenant index, in
// append order (later records win).
func (l *Log) indexRecord(seq int, payloadOff int64, payload []byte) error {
	d := snap.NewDecoder(payload)
	kind := Kind(d.Uint64())
	tenant := d.String()
	round := d.Int()
	d.Int() // delta base round
	d.Len() // blob
	if err := d.Err(); err != nil {
		return fmt.Errorf("record payload: %w", err)
	}
	if !kind.known() {
		return fmt.Errorf("unknown record kind %d", kind)
	}
	l.setLocked(tenant, tenantState{ref: recordRef{seg: seq, off: payloadOff, n: len(payload)}, round: round, kind: kind}, true)
	return nil
}

// setLocked replaces tenant's index entry with st, or deletes the entry
// when keep is false, and moves the per-segment live counts with it.
// The Open scan, Append and compaction all change the index through
// it. Callers hold l.mu (or own l, during Open).
func (l *Log) setLocked(tenant string, st tenantState, keep bool) {
	if old, ok := l.index[tenant]; ok {
		l.live[old.ref.seg]--
	}
	if !keep {
		delete(l.index, tenant)
		return
	}
	l.live[st.ref.seg]++
	l.index[tenant] = st
}

func (l *Log) openActive(seq int) error {
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(seq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := segmentHeader()
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeSeq = seq
	l.activeOff = segHeader
	l.dirty = true // header awaits its first sync
	l.countSegmentsLocked()
	return nil
}

// countSegmentsLocked republishes the segment count after a segment is
// opened, sealed or compacted away. Callers hold l.mu.
func (l *Log) countSegmentsLocked() {
	l.segments.Store(int64(len(l.sealed) + 1))
}

// appendPayloadLocked frames payload into the write buffer and returns
// its ref. Callers hold l.mu.
func (l *Log) appendPayloadLocked(payload []byte) recordRef {
	var frame [4]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	l.wbuf = append(l.wbuf, frame[:]...)
	ref := recordRef{seg: l.activeSeq, off: l.activeOff + 4, n: len(payload)}
	l.wbuf = append(l.wbuf, payload...)
	binary.LittleEndian.PutUint32(frame[:], crc32.ChecksumIEEE(payload))
	l.wbuf = append(l.wbuf, frame[:]...)
	l.activeOff += int64(len(payload)) + frameOver
	l.bytes.Add(int64(len(payload)) + frameOver)
	return ref
}

// failLocked records err as the log's sticky failure and returns it.
// After a failed or partial Write the buffered bytes' place in the
// segment is unknown (activeOff already counts them), and after a failed
// fsync the kernel may have dropped the dirty pages, so a retry could
// duplicate bytes mid-segment or "succeed" over lost data. Every later
// Append, Sync, Close and commit therefore returns this error and
// writes nothing. Callers hold l.mu.
func (l *Log) failLocked(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w, refusing further writes: %w", ErrFailed, err)
		l.opt.Logf("%v", l.err)
	}
	return l.err
}

// flushLocked moves buffered bytes into the active file (no fsync).
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if len(l.wbuf) == 0 {
		return nil
	}
	if _, err := l.active.Write(l.wbuf); err != nil {
		return l.failLocked(err)
	}
	l.wbuf = l.wbuf[:0]
	l.dirty = true
	l.flushes.Add(1)
	return nil
}

// commitLocked flushes and fsyncs the active segment with mu held: the
// commit of Sync, of a rotation before it seals the segment and
// compacts, of compaction before it unlinks, and of Close. A committer
// fsync in flight holds syncMu, so this waits for it — on a mutex, so mu
// is never released partway through a rotation — and fails with it if
// it failed: the kernel reports a writeback error to one fsync of the
// file, so a second one could succeed over the pages the first lost.
// It then fsyncs whatever no fsync has begun to cover. So no caller
// returns before the bytes it covers are durable. Callers hold l.mu.
func (l *Log) commitLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncErr != nil {
		return l.failLocked(l.syncErr)
	}
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return l.failLocked(err)
	}
	l.dirty = false
	l.fsyncs.Add(1)
	return nil
}

// committer is the group-commit loop: one fsync per CommitInterval
// whenever anything was appended, no matter how many tenants appended.
// A failed commit is sticky (failLocked), so it is logged once and
// never retried.
func (l *Log) committer() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.CommitInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			l.commit()
		}
	}
}

// commit is one group commit. Under mu it flushes the write buffer and
// claims the fsync (beginCommitLocked); the fsync runs with mu released,
// so Append, Latest and the tenant locks held around them never wait on
// the disk; then endCommit re-takes mu to count it or record its
// failure.
func (l *Log) commit() {
	l.mu.Lock()
	f := l.beginCommitLocked()
	l.mu.Unlock()
	if f != nil {
		l.endCommit(f.Sync())
	}
}

// beginCommitLocked flushes the write buffer and, when the active
// segment holds bytes no fsync has begun to cover, takes syncMu, clears
// dirty and returns the segment: the caller fsyncs it with mu released
// and hands the outcome to endCommit. It returns nil when there is
// nothing to commit or the log takes no more writes. The fsync holds its
// own reference to the *os.File, and syncMu keeps a rotation from
// sealing the segment, and compaction from closing and unlinking it,
// until that fsync has returned: both commit first (commitLocked), which
// waits on syncMu. Taking syncMu here never blocks, since every commit
// under mu releases it before mu. Callers hold l.mu.
func (l *Log) beginCommitLocked() *os.File {
	if l.closed || l.flushLocked() != nil || !l.dirty {
		return nil
	}
	l.syncMu.Lock()
	l.dirty = false
	return l.active
}

// endCommit finishes the commit beginCommitLocked claimed, given its
// fsync's outcome: it releases syncMu, then under mu counts the fsync or
// records its failure, which is sticky and logged once (failLocked).
// Callers do not hold l.mu.
func (l *Log) endCommit(err error) {
	if err != nil {
		l.syncErr = err
	}
	l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.failLocked(err)
		return
	}
	l.fsyncs.Add(1)
}

// Append adds one checkpoint record for tenant, which becomes its
// latest. baseRound is stored with the record and never read. An
// unknown kind is refused and nothing is written. Durability is
// deferred to the committer (bounded by CommitInterval); call Sync to
// force it.
func (l *Log) Append(tenant string, kind Kind, round, baseRound int, blob []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: append to closed log", ErrFailed)
	}
	if l.err != nil {
		return l.err
	}
	if !kind.known() {
		return fmt.Errorf("ckptlog: unknown record kind %d", kind)
	}
	l.enc.Reset()
	l.enc.Uint64(uint64(kind))
	l.enc.String(tenant)
	l.enc.Int(round)
	l.enc.Int(baseRound)
	l.enc.Blob(blob)
	l.setLocked(tenant, tenantState{ref: l.appendPayloadLocked(l.enc.Bytes()), round: round, kind: kind}, true)
	l.appends.Add(1)
	if l.activeOff > l.opt.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// AppendTombstone records that tenant was closed:
// recovery will report no record for it even though earlier records
// remain on disk until compaction. The caller should follow with Sync
// when the tombstone must be durable before proceeding (the serve tier
// does, once per close).
func (l *Log) AppendTombstone(tenant string) error {
	return l.Append(tenant, KindTombstone, 0, 0, nil)
}

// Sync forces everything appended so far to durable storage now,
// without waiting for the next commit interval (commitLocked). It
// returns the log's sticky failure once a write or sync has failed.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: sync of closed log", ErrFailed)
	}
	return l.commitLocked()
}

// rotateLocked seals the active segment and opens the next one,
// compacting if the sealed count now exceeds the bound.
func (l *Log) rotateLocked() error {
	if err := l.commitLocked(); err != nil {
		return err
	}
	f := l.active
	seq := l.activeSeq
	l.sealed = append(l.sealed, &segment{seq: seq, path: filepath.Join(l.opt.Dir, segName(seq)), f: f})
	if err := l.openActive(seq + 1); err != nil {
		// The old active stays usable as a sealed segment; the log is
		// failed for writes but recovery remains intact.
		return l.failLocked(err)
	}
	l.rotations.Add(1)
	return l.compactLocked()
}

// readRef returns the payload bytes a ref points at. Refs into the
// active segment require a flush first (callers do it).
func (l *Log) readRef(ref recordRef) ([]byte, error) {
	var f *os.File
	if ref.seg == l.activeSeq {
		f = l.active
	} else {
		for _, s := range l.sealed {
			if s.seq == ref.seg {
				f = s.f
				break
			}
		}
	}
	if f == nil {
		return nil, fmt.Errorf("ckptlog: record references missing segment %d", ref.seg)
	}
	buf := make([]byte, ref.n)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, err
	}
	return buf, nil
}

// compactLocked deletes sealed segments until none is dead and at most
// CompactSegments remain. A dead segment — one no index entry
// references, its records all superseded — goes first, wherever it
// sits; nothing needs copying. Rotation commits before it compacts, so
// every record superseding a dead segment's is already durable. Then,
// while too many sealed segments remain, the oldest one's live records
// are rewritten to the active segment (compactSegmentLocked) and it
// goes too. Unlinks happen under l.mu: compaction drops a tombstone
// only from the oldest segment, which is safe only while every older
// segment, and so every record it shadows, is already gone from disk.
func (l *Log) compactLocked() error {
	for {
		i := slices.IndexFunc(l.sealed, func(s *segment) bool { return l.live[s.seq] == 0 })
		if i < 0 {
			if len(l.sealed) <= l.opt.CompactSegments {
				return nil
			}
			i = 0
			if err := l.flushLocked(); err != nil {
				return err
			}
			if err := l.compactSegmentLocked(l.sealed[0]); err != nil {
				return err
			}
		}
		doomed := l.sealed[i]
		doomed.f.Close()
		if err := os.Remove(doomed.path); err != nil {
			return err
		}
		l.sealed = slices.Delete(l.sealed, i, i+1)
		delete(l.live, doomed.seq)
		l.countSegmentsLocked()
		l.compactions.Add(1)
	}
}

// compactSegmentLocked re-appends every live record of doomed, each a
// tenant's latest, to the active segment. A tombstone in doomed is
// dropped along with the segment: doomed is the oldest segment, so
// every record the tombstone shadowed lived in this or earlier
// segments, all gone.
func (l *Log) compactSegmentLocked(doomed *segment) error {
	// Deterministic order keeps tests reproducible.
	tenants := make([]string, 0, len(l.index))
	for id := range l.index {
		tenants = append(tenants, id)
	}
	sort.Strings(tenants)
	for _, id := range tenants {
		st := l.index[id]
		switch {
		case st.ref.seg != doomed.seq:
		case st.kind == KindTombstone:
			l.setLocked(id, tenantState{}, false)
		default:
			payload, err := l.readRef(st.ref)
			if err != nil {
				return fmt.Errorf("ckptlog: compacting %s: %w", filepath.Base(doomed.path), err)
			}
			st.ref = l.appendPayloadLocked(payload)
			l.setLocked(id, st, true)
		}
	}
	// The moved records must be durable before the doomed segment
	// disappears, or a crash in between loses them.
	return l.commitLocked()
}

// Latest returns tenant's current checkpoint: the blob and round of its
// latest record, a full one. ok is false when the log has no record for
// the tenant or its latest record is a tombstone. A latest delta is
// refused with an error naming the tenant and its round: the log does
// not resolve deltas. The returned blob is freshly allocated and
// caller-owned.
func (l *Log) Latest(tenant string) (blob []byte, round int, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, false, fmt.Errorf("%w: read of closed log", ErrFailed)
	}
	st, found := l.index[tenant]
	switch {
	case !found || st.kind == KindTombstone:
		return nil, 0, false, nil
	case st.kind == KindDelta:
		return nil, 0, false, fmt.Errorf("ckptlog: tenant %q: latest record is a delta at round %d, and this build reads only full records", tenant, st.round)
	}
	if err := l.flushLocked(); err != nil {
		return nil, 0, false, err
	}
	payload, err := l.readRef(st.ref)
	if err != nil {
		return nil, 0, false, err
	}
	if blob, err = decodeBlob(payload); err != nil {
		return nil, 0, false, err
	}
	return blob, st.round, true, nil
}

// decodeBlob extracts the blob from a record payload.
func decodeBlob(payload []byte) ([]byte, error) {
	d := snap.NewDecoder(payload)
	d.Uint64()       // kind
	_ = d.String()   // tenant
	d.Int()          // round
	d.Int()          // base round
	blob := d.Blob() // the checkpoint state
	if err := d.Done(); err != nil {
		return nil, err
	}
	return blob, nil
}

// Tenants returns the IDs whose latest record is not a tombstone,
// sorted. A tenant whose latest record is a delta is listed, so that a
// caller rebuilding every tenant meets Latest's refusal of it rather
// than drop it silently.
func (l *Log) Tenants() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]string, 0, len(l.index))
	for id, st := range l.index {
		if st.kind != KindTombstone {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Flushes counts the write-buffer flushes that moved bytes into the
// active segment: each hands every record appended before it to the OS,
// where the next fsync covers it. A caller that notes the count before
// an append knows, once it has moved, that the appended record has left
// the buffer. It reads one atomic.
func (l *Log) Flushes() int64 { return l.flushes.Load() }

// Stats returns a snapshot of the log's counters. It reads only
// atomics, so it never waits behind an append, a rotation or an fsync.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		Bytes:       l.bytes.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Rotations:   l.rotations.Load(),
		Compactions: l.compactions.Load(),
		Segments:    int(l.segments.Load()),
	}
}

// Close stops the committer, makes everything appended durable and
// closes the segment files, returning the log's sticky failure if it
// has one. The log must not be used afterwards.
func (l *Log) Close() error {
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.commitLocked()
	l.closeFilesLocked()
	return err
}

// Abort stops the committer and closes the files WITHOUT flushing the
// append buffer or issuing a final fsync — the crash-consistency
// analogue of Close, used by the serve tier's crash-simulating
// shutdown path and the fault-injection tests. Records still buffered
// are lost, exactly as a kill at that moment would lose them.
func (l *Log) Abort() error {
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closeFilesLocked()
	return nil
}

func (l *Log) stopCommitter() {
	l.mu.Lock()
	if !l.closed {
		select {
		case <-l.done:
		default:
			close(l.done)
		}
	}
	l.mu.Unlock()
	l.wg.Wait()
}

func (l *Log) closeFilesLocked() {
	for _, s := range l.sealed {
		s.f.Close()
	}
	if l.active != nil {
		l.active.Close()
	}
	l.closed = true
}
