package ckptlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/snap"
)

// blobFor builds a deterministic checkpoint blob for (tenant, round),
// large enough that several rounds span a small segment.
func blobFor(tenant string, round int) []byte {
	b := make([]byte, 0, 256)
	for i := 0; i < 8; i++ {
		b = append(b, fmt.Sprintf("%s/%d/%d|", tenant, round, i)...)
	}
	for len(b) < 200 {
		b = append(b, byte(round), byte(len(b)))
	}
	return b
}

func openTest(t *testing.T, dir string, mut func(*Options)) *Log {
	t.Helper()
	opt := Options{Dir: dir, CommitInterval: time.Hour, Logf: t.Logf}
	if mut != nil {
		mut(&opt)
	}
	l, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// liveFromIndex recomputes, from the index alone, the framed bytes of
// the records the index references in each segment: each tenant's
// latest record.
func liveFromIndex(l *Log) map[int]int64 {
	refs := make(map[int]int64)
	for _, st := range l.index {
		refs[st.ref.seg] += st.ref.framed()
	}
	return refs
}

// checkDeltaRefused requires Latest to refuse tenant, whose latest
// record is a delta at round, with an error naming both that does not
// mark the log failed, and Tenants to list the tenant, so a caller
// rebuilding every tenant cannot drop it silently.
func checkDeltaRefused(t *testing.T, l *Log, tenant string, round int) {
	t.Helper()
	blob, _, ok, err := l.Latest(tenant)
	if err == nil || ok || blob != nil {
		t.Fatalf("Latest(%s) over a latest delta = (%d bytes, ok %v, err %v), want a refusal", tenant, len(blob), ok, err)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", tenant)) ||
		!strings.Contains(msg, fmt.Sprintf("delta at round %d", round)) || errors.Is(err, ErrFailed) {
		t.Fatalf("Latest(%s) = %v, want a refusal naming the tenant and its delta at round %d", tenant, err, round)
	}
	if ids := l.Tenants(); !slices.Contains(ids, tenant) {
		t.Fatalf("Tenants() = %v omits %s, whose latest record is a delta", ids, tenant)
	}
}

// checkLive requires the log's per-segment live bytes to equal a
// recount from the index, and every referenced segment to exist. It
// reports with t.Errorf, so appending goroutines may call it.
func checkLive(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	want := liveFromIndex(l)
	exists := map[int]bool{l.activeSeq: true}
	for _, s := range l.sealed {
		exists[s.seq] = true
	}
	for seq, n := range want {
		if !exists[seq] {
			t.Errorf("index references segment %d, which is gone", seq)
		}
		if l.live[seq] != n {
			t.Errorf("segment %d: %d live bytes, index references %d", seq, l.live[seq], n)
		}
	}
	for seq, n := range l.live {
		if n != 0 && want[seq] == 0 {
			t.Errorf("segment %d: %d live bytes, index holds no reference", seq, n)
		}
	}
}

func TestLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	tenants := []string{"alpha", "beta", "gamma"}
	for round := 1; round <= 5; round++ {
		for _, id := range tenants {
			if err := l.Append(id, KindFull, round, 0, blobFor(id, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range tenants {
		blob, round, ok, err := l.Latest(id)
		if err != nil || !ok || round != 5 || !bytes.Equal(blob, blobFor(id, 5)) {
			t.Fatalf("Latest(%s) = round %d, ok %v, err %v", id, round, ok, err)
		}
	}
	if _, _, ok, _ := l.Latest("nope"); ok {
		t.Fatal("Latest of unknown tenant reported ok")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything recovers from disk.
	l2 := openTest(t, dir, nil)
	defer l2.Close()
	for _, id := range tenants {
		blob, round, ok, err := l2.Latest(id)
		if err != nil || !ok || round != 5 || !bytes.Equal(blob, blobFor(id, 5)) {
			t.Fatalf("after reopen: Latest(%s) = round %d, ok %v, err %v", id, round, ok, err)
		}
	}
	if got := l2.Tenants(); !equalStrings(got, tenants) {
		t.Fatalf("Tenants = %v", got)
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLogDeltaLatestRefused: a delta record, with or without a full
// record before it, becomes its tenant's latest record, and Latest
// refuses it by name rather than resolve it, live and after a reopen.
// A later full record clears the refusal.
func TestLogDeltaLatestRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	base := blobFor("ten", 3)
	if err := l.Append("ten", KindFull, 3, 0, base); err != nil {
		t.Fatal(err)
	}
	for round := 4; round <= 7; round++ {
		if err := l.Append("ten", KindDelta, round, 3, snap.MakeDelta(base, blobFor("ten", round))); err != nil {
			t.Fatal(err)
		}
		checkDeltaRefused(t, l, "ten", round)
	}
	// The log checks no chain: a delta with no full record behind it is
	// stored, and refused, the same way.
	if err := l.Append("fresh", KindDelta, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	checkDeltaRefused(t, l, "fresh", 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir, nil)
	checkDeltaRefused(t, l2, "ten", 7)
	checkDeltaRefused(t, l2, "fresh", 1)
	if err := l2.Append("ten", KindFull, 8, 0, blobFor("ten", 8)); err != nil {
		t.Fatal(err)
	}
	blob, round, ok, err := l2.Latest("ten")
	if err != nil || !ok || round != 8 || !bytes.Equal(blob, blobFor("ten", 8)) {
		t.Fatalf("after a later full: Latest = round %d, ok %v, err %v; want round 8", round, ok, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3 := openTest(t, dir, nil)
	defer l3.Close()
	blob, round, ok, err = l3.Latest("ten")
	if err != nil || !ok || round != 8 || !bytes.Equal(blob, blobFor("ten", 8)) {
		t.Fatalf("reopened after a later full: Latest = round %d, ok %v, err %v; want round 8", round, ok, err)
	}
	checkDeltaRefused(t, l3, "fresh", 1)
}

func TestLogTombstone(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	if err := l.Append("ten", KindFull, 4, 0, blobFor("ten", 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTombstone("ten"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := l.Latest("ten"); ok || err != nil {
		t.Fatalf("Latest after tombstone: ok %v, err %v", ok, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The tombstone shadows the full record across restarts.
	l2 := openTest(t, dir, nil)
	if _, _, ok, _ := l2.Latest("ten"); ok {
		t.Fatal("tombstoned tenant resurrected after reopen")
	}
	// Re-opening the tenant starts a fresh chain at a smaller round —
	// append order, not round numbers, must win.
	if err := l2.Append("ten", KindFull, 1, 0, blobFor("ten", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openTest(t, dir, nil)
	defer l3.Close()
	blob, round, ok, err := l3.Latest("ten")
	if err != nil || !ok || round != 1 || !bytes.Equal(blob, blobFor("ten", 1)) {
		t.Fatalf("re-opened tenant: Latest = round %d, ok %v, err %v", round, ok, err)
	}
}

// TestLogRotationCompaction drives enough records through a tiny
// segment bound to force many rotations and compactions, then verifies
// every tenant still resolves — live and across a reopen — and that the
// sealed segments stay within twice the live bytes plus the slack. Eight
// tenants update round-robin, so their old segments die whole; every
// fifth round a one-off idle tenant writes once and pins the segment it
// lands in, until the pinned segments outgrow the bound and compaction
// carries the oldest idle records forward.
func TestLogRotationCompaction(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 2 << 10
	mut := func(o *Options) { o.SegmentBytes = segBytes }
	l := openTest(t, dir, mut)
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	last := make(map[string]int)
	written := make(map[string]int) // each idle tenant's segment when it wrote
	for round := 1; round <= 60; round++ {
		ids := tenants
		if round%5 == 1 {
			ids = append(slices.Clip(tenants), fmt.Sprintf("idle%02d", round))
		}
		for _, id := range ids {
			if err := l.Append(id, KindFull, round, 0, blobFor(id, round)); err != nil {
				t.Fatal(err)
			}
			last[id] = round
			checkLive(t, l)
		}
		if id := ids[len(ids)-1]; strings.HasPrefix(id, "idle") {
			l.mu.Lock()
			written[id] = l.index[id].ref.seg
			l.mu.Unlock()
		}
	}
	var live int64
	for id, round := range last {
		live += int64(len(frameRecord(KindFull, id, round, blobFor(id, round))))
	}
	checkSealedBytes(t, dir, live, segBytes)
	l.mu.Lock()
	carried := l.index["idle01"].ref.seg
	l.mu.Unlock()
	if carried <= written["idle01"] {
		t.Fatalf("idle01, written once to segment %d, still lies in segment %d: compaction carried no record", written["idle01"], carried)
	}
	// One tenant dies mid-history; its records must be GCed, not
	// resurrected.
	if err := l.AppendTombstone("t3"); err != nil {
		t.Fatal(err)
	}
	checkLive(t, l)
	if st := l.Stats(); st.Rotations == 0 || st.Compactions == 0 {
		t.Fatalf("expected rotations and compactions, got %+v", st)
	}
	check := func(l *Log, when string) {
		t.Helper()
		for id, r := range last {
			blob, round, ok, err := l.Latest(id)
			if id == "t3" {
				if ok {
					t.Fatalf("%s: tombstoned t3 resolved", when)
				}
				continue
			}
			if err != nil || !ok || round != r || !bytes.Equal(blob, blobFor(id, r)) {
				t.Fatalf("%s: Latest(%s) = round %d, ok %v, err %v", when, id, round, ok, err)
			}
		}
	}
	check(l, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The tombstone only shrank the live bytes since the last check, and
	// a rotation it caused compacted to the smaller bound.
	checkSealedBytes(t, dir, live, segBytes)
	l2 := openTest(t, dir, mut)
	defer l2.Close()
	checkLive(t, l2)
	check(l2, "reopened")
}

// checkSealedBytes requires the sealed segment files in dir, all but the
// newest, to hold at most twice live plus the compaction slack of four
// segments of segBytes.
func checkSealedBytes(t *testing.T, dir string, live, segBytes int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "log-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var sealed int64
	for _, name := range names[:max(len(names)-1, 0)] {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		sealed += fi.Size()
	}
	if sealed > 2*live+compactSlack*segBytes {
		t.Fatalf("%d sealed segments hold %d bytes, over twice the %d live bytes plus %d × %d",
			len(names)-1, sealed, live, compactSlack, segBytes)
	}
}

// TestLogCompactionCarriesDeltas buries delta records in the oldest
// segment and compacts it away. A tenant whose latest record is a delta
// keeps that one record, moved forward and still refused by Latest; a
// tenant whose delta a later full record superseded recovers at the
// full's round. Both hold live and across a reopen, whose scan reads
// the carried delta.
func TestLogCompactionCarriesDeltas(t *testing.T) {
	dir := t.TempDir()
	mut := func(o *Options) { o.SegmentBytes = 1 << 10 }
	l := openTest(t, dir, mut)
	step := func(id string, kind Kind, round, base int, blob []byte) {
		t.Helper()
		if err := l.Append(id, kind, round, base, blob); err != nil {
			t.Fatal(err)
		}
		checkLive(t, l)
	}
	for _, id := range []string{"pair", "healed"} {
		base := blobFor(id, 1)
		step(id, KindFull, 1, 0, base)
		step(id, KindDelta, 2, 1, snap.MakeDelta(base, blobFor(id, 2)))
	}
	step("healed", KindFull, 3, 0, blobFor("healed", 3))
	l.mu.Lock()
	seg := l.index["pair"].ref.seg
	l.mu.Unlock()
	if seg != 1 {
		t.Fatalf("pair's delta landed in segment %d, want the first", seg)
	}
	// Bury them under churn from another tenant, beside one-off tenants
	// that each pin a segment of churn garbage, until the sealed segments
	// outgrow twice the live bytes plus the slack and compaction has
	// rewritten segment 1 forward.
	for round := 1; round <= 200; round++ {
		step("churn", KindFull, round, 0, blobFor("churn", round))
		if round%10 == 0 {
			pin := fmt.Sprintf("pin%03d", round)
			step(pin, KindFull, round, 0, blobFor(pin, round))
		}
	}
	if st := l.Stats(); st.Compactions == 0 {
		t.Fatalf("no compactions after churn: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 should have been compacted away (stat err %v)", err)
	}
	check := func(l *Log, when string) {
		t.Helper()
		checkDeltaRefused(t, l, "pair", 2)
		blob, round, ok, err := l.Latest("healed")
		if err != nil || !ok || round != 3 || !bytes.Equal(blob, blobFor("healed", 3)) {
			t.Fatalf("%s: Latest(healed) = round %d, ok %v, err %v; want round 3", when, round, ok, err)
		}
	}
	check(l, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openTest(t, dir, mut)
	defer l2.Close()
	checkLive(t, l2)
	check(l2, "reopened")
}

// TestLogReclaimsDeadSegments: every rotation deletes the sealed
// segments holding no live record, wherever they sit, so after it the
// files on disk are exactly the active segment plus the sealed segments
// a live record needs. An idle tenant's full record, or another's last
// delta, keeps a segment alive among younger dead ones, and a closed
// tenant's latest tombstone keeps its segment — and the tenant closed
// across a crash, although its older full record survives in the idle
// tenant's segment.
func TestLogReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	mut := func(o *Options) {
		o.SegmentBytes = 1 << 10
	}
	l := openTest(t, dir, mut)
	onDisk := func() []int {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "log-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		var seqs []int
		for _, name := range names {
			seq, err := segSeq(name)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		return seqs
	}
	needed := func() []int {
		l.mu.Lock()
		defer l.mu.Unlock()
		seqs := []int{l.activeSeq}
		for seq, n := range liveFromIndex(l) {
			if n > 0 && seq != l.activeSeq {
				seqs = append(seqs, seq)
			}
		}
		sort.Ints(seqs)
		return seqs
	}
	rotations := int64(0)
	step := func(id string, kind Kind, round, base int, blob []byte) {
		t.Helper()
		if err := l.Append(id, kind, round, base, blob); err != nil {
			t.Fatal(err)
		}
		checkLive(t, l)
		if st := l.Stats(); st.Rotations > rotations {
			rotations = st.Rotations
			if got, want := onDisk(), needed(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after rotation %d: segments on disk %v, want active + live sealed %v", rotations, got, want)
			}
		}
	}

	step("idle", KindFull, 1, 0, blobFor("idle", 1))
	step("gone", KindFull, 1, 0, blobFor("gone", 1))
	var tombSeg int
	var dBase []byte
	dBaseRound := 0
	for round := 1; round <= 60; round++ {
		for _, id := range []string{"c0", "c1", "c2", "c3"} {
			step(id, KindFull, round, 0, blobFor(id, round))
		}
		// d stops at round 40, so its last delta ends up the only live
		// record of its segment; the full record it was made against
		// pins nothing.
		switch {
		case round > 40:
		case round%8 == 1:
			dBase, dBaseRound = blobFor("d", round), round
			step("d", KindFull, round, 0, dBase)
		default:
			step("d", KindDelta, round, dBaseRound, snap.MakeDelta(dBase, blobFor("d", round)))
		}
		if round == 10 {
			step("gone", KindTombstone, 0, 0, nil)
			l.mu.Lock()
			tombSeg = l.index["gone"].ref.seg
			l.mu.Unlock()
		}
	}

	files := onDisk()
	st := l.Stats()
	if files[0] != 1 {
		t.Fatalf("segment 1, pinned by the idle tenant, is gone: on disk %v", files)
	}
	if files[1] == 2 {
		t.Fatalf("dead segment 2 survived behind segment 1: on disk %v", files)
	}
	if !slices.Contains(files, tombSeg) {
		t.Fatalf("segment %d holding gone's tombstone was deleted: on disk %v", tombSeg, files)
	}
	l.mu.Lock()
	created, deltaSeg := l.activeSeq, l.index["d"].ref.seg
	l.mu.Unlock()
	if !slices.Contains(files, deltaSeg) {
		t.Fatalf("segment %d holding d's last delta was deleted: on disk %v", deltaSeg, files)
	}
	if int64(created-len(files)) != st.Compactions {
		t.Fatalf("%d segments created, %d on disk, but %d compactions counted", created, len(files), st.Compactions)
	}

	ids := []string{"idle", "c0", "c1", "c2", "c3"}
	checkDeltaRefused(t, l, "d", 40)
	want := make(map[string][]byte)
	rounds := make(map[string]int)
	for _, id := range ids {
		blob, round, ok, err := l.Latest(id)
		if err != nil || !ok {
			t.Fatalf("Latest(%s): ok %v, err %v", id, ok, err)
		}
		want[id], rounds[id] = blob, round
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort(); err != nil {
		t.Fatal(err)
	}
	l2 := openTest(t, dir, mut)
	defer l2.Close()
	checkLive(t, l2)
	if _, _, ok, err := l2.Latest("gone"); ok || err != nil {
		t.Fatalf("closed tenant after reopen: ok %v, err %v; want it to stay closed", ok, err)
	}
	if got, want := l2.Tenants(), append(ids, "d"); !equalStrings(got, want) {
		t.Fatalf("Tenants after reopen = %v, want %v", got, want)
	}
	checkDeltaRefused(t, l2, "d", 40)
	for _, id := range ids {
		blob, round, ok, err := l2.Latest(id)
		if err != nil || !ok || round != rounds[id] || !bytes.Equal(blob, want[id]) {
			t.Fatalf("Latest(%s) after reopen = round %d, ok %v, err %v; want round %d", id, round, ok, err, rounds[id])
		}
	}
}

// boundLog appends full records to a fresh log and checks the
// compaction bound after every append: the sealed segment files hold at
// most twice the live bytes plus the slack (checkSealedBytes), with the
// live bytes recounted from what was appended, not read from the log.
type boundLog struct {
	t        *testing.T
	l        *Log
	dir      string
	segBytes int64
	rounds   map[string]int   // each tenant's latest round
	latest   map[string]int64 // the framed bytes of its latest record
	live     int64            // their sum
	appended int64            // framed bytes appended
}

func newBoundLog(t *testing.T, segBytes int64) *boundLog {
	dir := t.TempDir()
	b := &boundLog{t: t, dir: dir, segBytes: segBytes, rounds: map[string]int{}, latest: map[string]int64{}}
	b.l = openTest(t, dir, func(o *Options) { o.SegmentBytes = segBytes })
	t.Cleanup(func() { b.l.Close() })
	return b
}

// append writes id's next round with blob.
func (b *boundLog) append(id string, blob []byte) {
	b.t.Helper()
	b.rounds[id]++
	if err := b.l.Append(id, KindFull, b.rounds[id], 0, blob); err != nil {
		b.t.Fatal(err)
	}
	n := int64(len(frameRecord(KindFull, id, b.rounds[id], blob)))
	b.live += n - b.latest[id]
	b.latest[id] = n
	b.appended += n
	checkSealedBytes(b.t, b.dir, b.live, b.segBytes)
}

// writeAmp is the framed bytes written, compaction copies included,
// over the framed bytes appended.
func (b *boundLog) writeAmp() float64 { return float64(b.l.Stats().Bytes) / float64(b.appended) }

// reopen closes the log, opens its directory again and requires every
// tenant to resolve at its latest round with blob.
func (b *boundLog) reopen(blob func(id string) []byte) {
	b.t.Helper()
	if err := b.l.Close(); err != nil {
		b.t.Fatal(err)
	}
	b.l = openTest(b.t, b.dir, func(o *Options) { o.SegmentBytes = b.segBytes })
	checkLive(b.t, b.l)
	for id, r := range b.rounds {
		got, round, ok, err := b.l.Latest(id)
		if err != nil || !ok || round != r || !bytes.Equal(got, blob(id)) {
			b.t.Fatalf("reopened: Latest(%s) = round %d, ok %v, err %v; want round %d", id, round, ok, err, r)
		}
	}
}

// TestLogCompactionBound pins what sizing compaction by live bytes buys.
// At live state 1.5 and 6 times 4 × SegmentBytes, with every tenant
// written once and then updated round-robin, at random, or one hot
// tenant updated beside cold ones each written once among its updates,
// write amplification stays at most 2 and the sealed segments within
// twice the live bytes plus the slack. Every tenant then recovers at its
// latest round.
func TestLogCompactionBound(t *testing.T) {
	const segBytes = 1 << 10
	blob := bytes.Repeat([]byte("live"), 50)
	framed := len(frameRecord(KindFull, "c0000", 1, blob))
	patterns := []struct {
		name string
		// order lists the tenant each append goes to, 7n appends in all.
		order func(n int) []int
	}{
		{"round-robin", func(n int) []int {
			var order []int
			for pass := 0; pass <= 6; pass++ {
				for i := range n {
					order = append(order, i)
				}
			}
			return order
		}},
		{"random", func(n int) []int {
			r := rand.New(rand.NewPCG(uint64(n), 1))
			var order []int
			for i := range n {
				order = append(order, i)
			}
			for range 6 * n {
				order = append(order, r.IntN(n))
			}
			return order
		}},
		{"hot-cold", func(n int) []int {
			var order []int
			for i := 1; i < n; i++ {
				order = append(order, 0, 0, 0, i)
			}
			for len(order) < 7*n {
				order = append(order, 0)
			}
			return order
		}},
	}
	for _, p := range patterns {
		for _, factor := range []float64{1.5, 6} {
			t.Run(fmt.Sprintf("%s/%gx", p.name, factor), func(t *testing.T) {
				n := int(math.Ceil(factor * compactSlack * segBytes / float64(framed)))
				b := newBoundLog(t, segBytes)
				for _, i := range p.order(n) {
					b.append(fmt.Sprintf("c%04d", i), blob)
				}
				st := b.l.Stats()
				t.Logf("%d tenants, %d live bytes: %d appends, %d rotations, %d compactions, write amplification %.2f",
					n, b.live, st.Appends, st.Rotations, st.Compactions, b.writeAmp())
				if wa := b.writeAmp(); wa > 2 {
					t.Fatalf("write amplification %.2f, want at most 2 (%+v)", wa, st)
				}
				b.reopen(func(string) []byte { return blob })
			})
		}
	}
}

// TestLogRotationPace: live records past four segments do not make the
// log rotate on every append, which happens once each rotation's copies
// refill the active segment. Each case appends SegmentBytes' worth or
// more per rotation, at write amplification at most 2: sixty-four
// tenants of ~760 B records updated round-robin over 4 KiB segments, as
// the serve tier's crash-restart harness writes them, and five records
// of two segments each followed by 400 small appends from eight tenants.
func TestLogRotationPace(t *testing.T) {
	const segBytes = 4 << 10
	small := bytes.Repeat([]byte("s"), 200)
	check := func(b *boundLog) {
		t.Helper()
		st := b.l.Stats()
		t.Logf("%d appends, %d bytes appended, %d rotations, %d compactions, write amplification %.2f",
			st.Appends, b.appended, st.Rotations, st.Compactions, b.writeAmp())
		if st.Rotations*segBytes > b.appended {
			t.Fatalf("%d rotations for %d bytes appended, more than one per %d", st.Rotations, b.appended, segBytes)
		}
		if wa := b.writeAmp(); wa > 2 {
			t.Fatalf("write amplification %.2f, want at most 2", wa)
		}
	}

	t.Run("64-tenants", func(t *testing.T) {
		blob := bytes.Repeat([]byte("m"), 740)
		b := newBoundLog(t, segBytes)
		for pass := 0; pass < 6; pass++ {
			for i := range 64 {
				b.append(fmt.Sprintf("r%02d", i), blob)
			}
		}
		check(b)
		b.reopen(func(string) []byte { return blob })
	})

	t.Run("large-records", func(t *testing.T) {
		large := bytes.Repeat([]byte("L"), 2*segBytes)
		b := newBoundLog(t, segBytes)
		for i := range 5 {
			b.append(fmt.Sprintf("large%d", i), large)
		}
		for i := range 400 {
			b.append(fmt.Sprintf("small%d", i%8), small)
		}
		check(b)
		b.reopen(func(id string) []byte {
			if strings.HasPrefix(id, "large") {
				return large
			}
			return small
		})
	})
}

// TestLogTruncationSweep cuts the newest segment at every byte length
// and requires recovery to come up loudly with a consistent prefix:
// each tenant's Latest matches its last record the cut left whole —
// nothing before its first, the exact blob of a full record, the
// refusal of a delta — and recovery never panics or mis-resolves.
func TestLogTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	type rec struct {
		id    string
		kind  Kind
		round int
	}
	var recs []rec // in append order
	for round := 1; round <= 6; round++ {
		recs = append(recs, rec{"a", KindFull, round})
		if err := l.Append("a", KindFull, round, 0, blobFor("a", round)); err != nil {
			t.Fatal(err)
		}
		// d alternates full records with deltas against them.
		r, base, blob := rec{"d", KindFull, round}, 0, blobFor("d", round)
		if round%2 == 0 {
			r.kind, base, blob = KindDelta, round-1, snap.MakeDelta(blobFor("d", round-1), blob)
		}
		recs = append(recs, r)
		if err := l.Append("d", r.kind, round, base, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "log-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected one segment, found %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cuts landing exactly on a record boundary (or the bare header) are
	// clean prefixes — indistinguishable from a crash between commits —
	// and recover silently. Every other cut must be loud. ends[i] is
	// where recs[i] ends.
	boundary := map[int]bool{segHeader: true}
	var ends []int
	for off := segHeader; off < len(whole); {
		n := int(binary.LittleEndian.Uint32(whole[off:]))
		off += 4 + n + 4
		boundary[off] = true
		ends = append(ends, off)
	}
	if len(ends) != len(recs) {
		t.Fatalf("segment holds %d records, %d appended", len(ends), len(recs))
	}

	for cut := 0; cut < len(whole); cut++ {
		cutDir := t.TempDir()
		path := filepath.Join(cutDir, filepath.Base(segs[0]))
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var loud bool
		opt := Options{Dir: cutDir, CommitInterval: time.Hour,
			Logf: func(string, ...any) { loud = true }}
		lc, err := Open(opt)
		if err != nil {
			t.Fatalf("cut %d: Open failed hard: %v (torn tails must recover)", cut, err)
		}
		if !loud && !boundary[cut] {
			t.Fatalf("cut %d: truncation recovered silently", cut)
		}
		last := map[string]rec{}
		for i, r := range recs {
			if ends[i] <= cut {
				last[r.id] = r
			}
		}
		for _, id := range []string{"a", "d"} {
			r, kept := last[id]
			switch {
			case !kept:
				if _, _, ok, err := lc.Latest(id); ok || err != nil {
					t.Fatalf("cut %d: Latest(%s) = ok %v, err %v before its first record", cut, id, ok, err)
				}
			case r.kind == KindDelta:
				checkDeltaRefused(t, lc, id, r.round)
			default:
				blob, round, ok, err := lc.Latest(id)
				if err != nil || !ok || round != r.round || !bytes.Equal(blob, blobFor(id, r.round)) {
					t.Fatalf("cut %d: Latest(%s) = round %d, ok %v, err %v; want the whole record of round %d", cut, id, round, ok, err, r.round)
				}
			}
		}
		lc.Close()
	}
}

// TestLogCorruptionLoudness flips bytes in segment bodies: a flip in
// the newest segment is a recoverable torn tail (loud, prefix state); a
// flip in a sealed segment is a hard Open error.
func TestLogCorruptionLoudness(t *testing.T) {
	build := func(t *testing.T, segBytes int64) string {
		dir := t.TempDir()
		l := openTest(t, dir, func(o *Options) {
			o.SegmentBytes = segBytes
		})
		for round := 1; round <= 40; round++ {
			if err := l.Append("ten", KindFull, round, 0, blobFor("ten", round)); err != nil {
				t.Fatal(err)
			}
			// A tenant written once pins its segment: without pins every
			// sealed segment but the newest holds only superseded records
			// of "ten", and rotation deletes it.
			if round%4 == 1 {
				pin := fmt.Sprintf("pin%d", round)
				if err := l.Append(pin, KindFull, round, 0, blobFor(pin, round)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("tail-flip-recovers", func(t *testing.T) {
		dir := build(t, 1<<30) // one segment
		segs, _ := filepath.Glob(filepath.Join(dir, "log-*.seg"))
		data, _ := os.ReadFile(segs[0])
		data[len(data)-10] ^= 0x40 // inside the last record
		os.WriteFile(segs[0], data, 0o644)
		var loud bool
		l, err := Open(Options{Dir: dir, CommitInterval: time.Hour,
			Logf: func(string, ...any) { loud = true }})
		if err != nil {
			t.Fatalf("Open after tail flip: %v", err)
		}
		defer l.Close()
		if !loud {
			t.Fatal("tail corruption recovered silently")
		}
		blob, round, ok, err := l.Latest("ten")
		if err != nil || !ok || round >= 40 || !bytes.Equal(blob, blobFor("ten", round)) {
			t.Fatalf("Latest = round %d, ok %v, err %v; want a clean earlier round", round, ok, err)
		}
	})

	t.Run("sealed-flip-fails", func(t *testing.T) {
		dir := build(t, 1<<10) // several segments
		segs, _ := filepath.Glob(filepath.Join(dir, "log-*.seg"))
		sort.Strings(segs)
		if len(segs) < 3 {
			t.Fatalf("want several segments, got %d", len(segs))
		}
		data, _ := os.ReadFile(segs[0])
		data[len(data)/2] ^= 0x40
		os.WriteFile(segs[0], data, 0o644)
		if l, err := Open(Options{Dir: dir, CommitInterval: time.Hour}); err == nil {
			l.Close()
			t.Fatal("corruption in a sealed segment did not fail Open")
		} else if !strings.Contains(err.Error(), "sealed") {
			t.Fatalf("error does not name the sealed segment: %v", err)
		}
	})
}

// frameRecord returns one framed, CRC-valid record as Append would
// write it, of any kind, valid or not.
func frameRecord(kind Kind, tenant string, round int, blob []byte) []byte {
	e := snap.NewEncoder()
	e.Uint64(uint64(kind))
	e.String(tenant)
	e.Int(round)
	e.Int(0)
	e.Blob(blob)
	payload := e.Bytes()
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

// TestLogUnknownKind pins the record-kind check. Append refuses a kind
// outside KindFull…KindTombstone and writes nothing. Recovery refuses a
// CRC-valid record of an unknown kind wherever it sits, since no crash
// writes one: in a sealed segment it fails Open naming the segment, and
// in the newest one too, naming the segment, the offset and the kind,
// rather than cut it and every record after it as a torn tail.
func TestLogUnknownKind(t *testing.T) {
	// build writes full records of a and b at round 1 to a fresh log,
	// then a CRC-valid record of kind 7 after them, and returns the
	// directory, the segment's path and its length before the record.
	build := func(t *testing.T) (dir, seg string, clean int64) {
		dir = t.TempDir()
		l := openTest(t, dir, nil)
		for _, id := range []string{"a", "b"} {
			if err := l.Append(id, KindFull, 1, 0, blobFor(id, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		seg = filepath.Join(dir, segName(1))
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frameRecord(7, "a", 2, blobFor("a", 2))); err != nil {
			t.Fatal(err)
		}
		return dir, seg, fi.Size()
	}

	t.Run("append-refuses", func(t *testing.T) {
		dir := t.TempDir()
		l := openTest(t, dir, nil)
		defer l.Close()
		if err := l.Append("a", KindFull, 1, 0, blobFor("a", 1)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		size := func() int64 {
			t.Helper()
			fi, err := os.Stat(filepath.Join(dir, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}
		before, stats := size(), l.Stats()
		for _, kind := range []Kind{-1, KindTombstone + 1} {
			err := l.Append("x", kind, 2, 0, blobFor("x", 2))
			if err == nil || errors.Is(err, ErrFailed) || !strings.Contains(err.Error(), fmt.Sprintf("unknown record kind %d", kind)) {
				t.Fatalf("Append of kind %d = %v, want a refusal naming the kind", kind, err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, st := size(), l.Stats(); got != before || st.Appends != stats.Appends || st.Bytes != stats.Bytes {
			t.Fatalf("refused appends wrote: segment %d → %d bytes, Stats %+v → %+v", before, got, stats, st)
		}
		if ids := l.Tenants(); slices.Contains(ids, "x") {
			t.Fatalf("Tenants() = %v lists the refused record's tenant", ids)
		}
		if err := l.Append("a", KindFull, 2, 0, blobFor("a", 2)); err != nil {
			t.Fatalf("Append after a refusal: %v", err)
		}
	})

	t.Run("sealed-fails", func(t *testing.T) {
		dir, _, _ := build(t)
		hdr := segmentHeader()
		if err := os.WriteFile(filepath.Join(dir, segName(2)), hdr[:], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, CommitInterval: time.Hour})
		if err == nil {
			l.Close()
			t.Fatal("a record of unknown kind in a sealed segment did not fail Open")
		}
		if msg := err.Error(); !strings.Contains(msg, segName(1)) || !strings.Contains(msg, "unknown record kind 7") || !strings.Contains(msg, "sealed") {
			t.Fatalf("Open = %v, want an error naming %s, the kind and the sealed segment", err, segName(1))
		}
	})

	t.Run("tail-cut", func(t *testing.T) {
		dir, seg, clean := build(t)
		before := dirFiles(t, dir)
		l, err := Open(Options{Dir: dir, CommitInterval: time.Hour, Logf: t.Logf})
		if err == nil {
			l.Close()
			t.Fatal("a record of unknown kind ending the newest segment did not fail Open")
		}
		if msg := err.Error(); !strings.Contains(msg, filepath.Base(seg)) || !strings.Contains(msg, "unknown record kind 7") ||
			!strings.Contains(msg, fmt.Sprintf("offset %d", clean)) {
			t.Fatalf("Open = %v, want an error naming %s, offset %d and the kind", err, filepath.Base(seg), clean)
		}
		if after := dirFiles(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatalf("the refused Open changed the directory: %d files, now %d, or their bytes", len(before), len(after))
		}
	})
}

// dirFiles returns the contents of every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestLogZeroTail: a crash can leave the newest segment extended with
// zero bytes past its last record. Eight or more of them parse as a
// CRC-valid frame of an empty payload (CRC-32 of nothing is 0) whose
// kind does not decode, so they are a torn tail like four of them:
// recovery logs it, cuts the file back to its clean length and keeps
// every record before it.
func TestLogZeroTail(t *testing.T) {
	for _, zeros := range []int{4, 8, 64, 4096} {
		t.Run(fmt.Sprint(zeros), func(t *testing.T) {
			dir := t.TempDir()
			l := openTest(t, dir, nil)
			for _, id := range []string{"a", "b"} {
				if err := l.Append(id, KindFull, 1, 0, blobFor(id, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segName(1))
			whole, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, append(whole, make([]byte, zeros)...), 0o644); err != nil {
				t.Fatal(err)
			}
			var loud bool
			l2, err := Open(Options{Dir: dir, CommitInterval: time.Hour,
				Logf: func(string, ...any) { loud = true }})
			if err != nil {
				t.Fatalf("Open over %d trailing zero bytes: %v", zeros, err)
			}
			defer l2.Close()
			if !loud {
				t.Fatal("the zero tail was cut silently")
			}
			if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(whole)) {
				t.Fatalf("segment after recovery: %v, err %v; want it cut to its %d clean bytes", fi.Size(), err, len(whole))
			}
			for _, id := range []string{"a", "b"} {
				blob, round, ok, err := l2.Latest(id)
				if err != nil || !ok || round != 1 || !bytes.Equal(blob, blobFor(id, 1)) {
					t.Fatalf("Latest(%s) = round %d, ok %v, err %v; want its round 1 record", id, round, ok, err)
				}
			}
		})
	}
}

// TestLogAbortLosesOnlyTail: records appended but not yet committed are
// lost by Abort (the crash analogue), while everything before the last
// Sync survives.
func TestLogAbortLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	if err := l.Append("ten", KindFull, 1, 0, blobFor("ten", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("ten", KindFull, 2, 0, blobFor("ten", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Abort(); err != nil { // round 2 still buffered: gone
		t.Fatal(err)
	}
	l2 := openTest(t, dir, nil)
	defer l2.Close()
	blob, round, ok, err := l2.Latest("ten")
	if err != nil || !ok || round != 1 || !bytes.Equal(blob, blobFor("ten", 1)) {
		t.Fatalf("after abort: Latest = round %d, ok %v, err %v; want the synced round 1", round, ok, err)
	}
}

// TestLogRecoverTwice: recovery from a torn newest segment seals it,
// so a second crash and recovery of the same directory reads it as a
// sealed segment. That must succeed — the torn bytes are gone from
// disk, not just from the index — and keep every record acked before
// either crash.
func TestLogRecoverTwice(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	for round := 1; round <= 3; round++ {
		if err := l.Append("c", KindFull, round, 0, blobFor("c", round)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "log-*.seg"))
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	first := segHeader + 4 + int(binary.LittleEndian.Uint32(whole[segHeader:])) + 4

	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"torn-header", 5},
		{"torn-length-word", first + 2},
		{"torn-crc", len(whole) - 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), whole[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l1 := openTest(t, dir, nil)
			cBlob, cRound, cOK, err := l1.Latest("c")
			if err != nil {
				t.Fatal(err)
			}
			if err := l1.Append("a", KindFull, 4, 0, blobFor("a", 4)); err != nil {
				t.Fatal(err)
			}
			if err := l1.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l1.Abort(); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(Options{Dir: dir, CommitInterval: time.Hour, Logf: t.Logf})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			defer l2.Close()
			if blob, round, ok, err := l2.Latest("a"); err != nil || !ok || round != 4 || !bytes.Equal(blob, blobFor("a", 4)) {
				t.Fatalf("Latest(a) = round %d, ok %v, err %v; want the acked round 4", round, ok, err)
			}
			blob, round, ok, err := l2.Latest("c")
			if err != nil || ok != cOK || round != cRound || !bytes.Equal(blob, cBlob) {
				t.Fatalf("Latest(c) = round %d, ok %v, err %v; first recovery had round %d, ok %v", round, ok, err, cRound, cOK)
			}
		})
	}
}

// TestLogGroupCommitBatches: many appends inside one commit interval
// cost one fsync, not one per append.
func TestLogGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil) // CommitInterval: 1h → only explicit Syncs
	for round := 1; round <= 100; round++ {
		for _, id := range []string{"a", "b", "c", "d"} {
			if err := l.Append(id, KindFull, round, 0, blobFor(id, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 400 {
		t.Fatalf("Appends = %d", st.Appends)
	}
	if st.Fsyncs > 2 {
		t.Fatalf("%d fsyncs for one batch of 400 appends", st.Fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogFlushesCountsWrites: Flushes moves once per flush that hands
// buffered records to the segment file — a Sync, a Latest read, a
// committer pass — and not for one that finds the buffer empty, so a
// caller that read it before an append sees it move once that record
// has left the buffer.
func TestLogFlushesCountsWrites(t *testing.T) {
	l := openTest(t, t.TempDir(), nil) // CommitInterval 1h → only explicit flushes
	defer l.Close()
	step := func(what string, op func() error, want int64) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := l.Flushes(); got != want {
			t.Fatalf("after %s: Flushes = %d, want %d", what, got, want)
		}
	}
	appendA := func() error { return l.Append("a", KindFull, 1, 0, blobFor("a", 1)) }
	step("an append", appendA, 0)
	step("a Sync", l.Sync, 1)
	step("a Sync of an empty buffer", l.Sync, 1)
	step("a second append", appendA, 1)
	step("a Latest read", func() error { _, _, _, err := l.Latest("a"); return err }, 2)
	step("a third append", appendA, 2)
	l.commit()
	step("a committer pass", func() error { return nil }, 3)
}

// TestLogConcurrentAppends exercises the lock paths under the race
// detector: many goroutines appending and reading concurrently, with a
// fast committer and tiny segments forcing rotation and compaction.
func TestLogConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(o *Options) {
		o.CommitInterval = 200 * time.Microsecond
		o.SegmentBytes = 8 << 10
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("g%d", g)
			for round := 1; round <= 50; round++ {
				if err := l.Append(id, KindFull, round, 0, blobFor(id, round)); err != nil {
					t.Errorf("%s append: %v", id, err)
					return
				}
				checkLive(t, l)
				if round%10 == 0 {
					if _, _, _, err := l.Latest(id); err != nil {
						t.Errorf("%s latest: %v", id, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkLive(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openTest(t, dir, nil)
	defer l2.Close()
	checkLive(t, l2)
	for g := 0; g < 8; g++ {
		id := fmt.Sprintf("g%d", g)
		blob, round, ok, err := l2.Latest(id)
		if err != nil || !ok || round != 50 || !bytes.Equal(blob, blobFor(id, 50)) {
			t.Fatalf("Latest(%s) = round %d, ok %v, err %v", id, round, ok, err)
		}
	}
}

// TestLogStaleDeltaAfterCompaction pins the recovery scan against
// compaction residue: compaction may drop a segment holding an old full
// record while younger sealed segments still hold stale deltas against
// it. The scan must tolerate those (they are superseded in append
// order), and when such a delta is a tenant's actual latest record the
// reopened log must still list the tenant and refuse it by name, not
// resurrect it at an older round or drop it.
func TestLogStaleDeltaAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(o *Options) {
		o.SegmentBytes = 300 // two records seal a segment
	})
	step := func(id string, kind Kind, round, base int) {
		t.Helper()
		if err := l.Append(id, kind, round, base, blobFor(id, round)); err != nil {
			t.Fatal(err)
		}
	}
	// seg1: a's chain base, beside z's first record.
	step("a", KindFull, 1, 0)
	step("z", KindFull, 1, 0)
	// seg2: a delta against it (soon stale), beside p's only record,
	// which keeps seg2 alive.
	step("a", KindDelta, 2, 1)
	step("p", KindFull, 1, 0)
	// seg3: a new full supersedes the chain, and z is rewritten, leaving
	// seg1 with no live record: compaction deletes it (old full, not
	// latest) but keeps seg2, whose delta is now stale.
	step("a", KindFull, 10, 0)
	step("z", KindFull, 2, 0)
	// Filler appends keep the log rotating past seg3.
	for i := 1; i <= 2; i++ {
		step("b", KindFull, i, 0)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 should have been compacted away (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(2))); err != nil {
		t.Fatalf("segment 2 (stale delta) should survive: %v", err)
	}

	// Reopen must scan past the stale delta and resolve a at round 10.
	l2 := openTest(t, dir, nil)
	blob, round, ok, err := l2.Latest("a")
	if err != nil || !ok || round != 10 || !bytes.Equal(blob, blobFor("a", 10)) {
		t.Fatalf("Latest(a) after compaction residue = round %d, ok %v, err %v", round, ok, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Now make the stale delta the latest record: truncate away every
	// segment after seg2 and reopen — a's recovery must be refused,
	// loudly, while p's record still reads.
	names, err := filepath.Glob(filepath.Join(dir, "log-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if seq, serr := segSeq(name); serr != nil {
			t.Fatal(serr)
		} else if seq > 2 {
			if err := os.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	l3 := openTest(t, dir, nil)
	defer l3.Close()
	checkDeltaRefused(t, l3, "a", 2)
	if blob, round, ok, err := l3.Latest("p"); err != nil || !ok || round != 1 || !bytes.Equal(blob, blobFor("p", 1)) {
		t.Fatalf("Latest(p) beside a's stale delta = round %d, ok %v, err %v; want round 1", round, ok, err)
	}
}

// TestLogFailureIsSticky pins the fsync-failure rule: once a write to
// the active segment fails, Sync, Append and Close keep failing, and the
// buffered bytes are never written afterwards — a retry could duplicate
// bytes mid-segment after a partial write, or report durability for
// pages the kernel dropped after a failed fsync. The failure is forced
// by swapping a closed file in for the active segment, then putting the
// real one back so a retry would succeed if one were attempted.
func TestLogFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, nil)
	if err := l.Append("a", KindFull, 1, 0, blobFor("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Buffered, not yet written: the bytes a retry would write.
	if err := l.Append("a", KindFull, 2, 0, blobFor("a", 2)); err != nil {
		t.Fatal(err)
	}
	dead, err := os.Create(filepath.Join(t.TempDir(), "dead.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	l.mu.Lock()
	active, path := l.active, filepath.Join(dir, segName(l.activeSeq))
	l.active = dead
	l.mu.Unlock()
	if err := l.Sync(); err == nil {
		t.Fatal("Sync over a failing segment succeeded")
	}
	l.mu.Lock()
	l.active = active
	l.mu.Unlock()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := l.Sync(); err == nil {
		t.Fatal("Sync after a failure succeeded: the failure must be sticky")
	}
	if err := l.Append("b", KindFull, 1, 0, blobFor("b", 1)); err == nil {
		t.Fatal("Append after a failure succeeded: the failure must be sticky")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after a failure succeeded: the failure must be sticky")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("segment grew from %d to %d bytes after the failure (buffered bytes rewritten)", before.Size(), after.Size())
	}
}

// TestLogStatsSkipsLock: Stats reads only atomics, so a caller polling
// the counters never queues behind the log's lock, which a rotation
// holds across its fsync and compaction. The segment count it reports
// must still track rotation and compaction exactly.
func TestLogStatsSkipsLock(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, func(o *Options) {
		o.SegmentBytes = 1 << 10
	})
	defer l.Close()
	for round := 1; round <= 40; round++ {
		if err := l.Append("a", KindFull, round, 0, blobFor("a", round)); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "log-*.seg"))
	l.mu.Lock()
	got := make(chan Stats, 1)
	go func() { got <- l.Stats() }()
	var st Stats
	select {
	case st = <-got:
		l.mu.Unlock()
	case <-time.After(time.Second):
		l.mu.Unlock()
		<-got
		t.Fatal("Stats waited for the log lock")
	}
	if st.Appends != 40 || st.Compactions == 0 {
		t.Fatalf("Stats = %+v, want 40 appends and some compactions", st)
	}
	if st.Segments != len(files) {
		t.Fatalf("Stats reports %d segments, %d on disk", st.Segments, len(files))
	}
}

// TestLogCommitOffLock: the committer fsyncs with the log's lock
// released. While its fsync is in flight — begun as the committer begins
// it: the write buffer flushed, dirty cleared, syncMu held — Append,
// Latest and Stats return. A Sync issued then waits for that fsync
// instead of overlapping it, and still issues its own fsync (Fsyncs +1)
// for the bytes Latest flushed after it began, before returning.
func TestLogCommitOffLock(t *testing.T) {
	l := openTest(t, t.TempDir(), nil) // CommitInterval 1h: the test is the committer
	defer l.Close()
	if err := l.Append("a", KindFull, 1, 0, blobFor("a", 1)); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	f := l.beginCommitLocked()
	l.mu.Unlock()
	if f == nil {
		t.Fatal("no commit begun over an appended record")
	}
	base := l.Stats().Fsyncs

	done := make(chan error, 1)
	go func() {
		if err := l.Append("a", KindFull, 2, 0, blobFor("a", 2)); err != nil {
			done <- err
			return
		}
		blob, round, ok, err := l.Latest("a") // flushes round 2 into the segment
		if err == nil && (!ok || round != 2 || !bytes.Equal(blob, blobFor("a", 2))) {
			err = fmt.Errorf("Latest(a) = round %d, ok %v; want round 2", round, ok)
		}
		l.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		l.endCommit(f.Sync())
		t.Fatal("Append, Latest or Stats waited on the committer's fsync")
	}

	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	select {
	case err := <-synced:
		l.endCommit(f.Sync()) // so the deferred Close can commit
		t.Fatalf("Sync returned (%v) while the committer's fsync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.endCommit(f.Sync())
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != base+2 {
		t.Fatalf("Fsyncs = %d, want %d: the committer's fsync and Sync's own", got, base+2)
	}
}

// failureCounter returns a Logf that counts the sticky-failure lines it
// receives, and a reader of the count.
func failureCounter(t *testing.T) (func(string, ...any), func() int) {
	var mu sync.Mutex
	n := 0
	logf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if strings.Contains(msg, ErrFailed.Error()) {
			mu.Lock()
			n++
			mu.Unlock()
		}
		t.Log(msg)
	}
	return logf, func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
}

// TestLogOffLockFsyncFailureIsSticky: a group-commit fsync that fails
// with the lock released is as sticky as one under it. A closed file
// swapped in as the active segment, holding bytes no fsync covers, fails
// the committer's next fsync; afterwards Append, Sync and Close all
// return an ErrFailed-wrapped error, and Logf saw the failure once.
func TestLogOffLockFsyncFailureIsSticky(t *testing.T) {
	logf, failures := failureCounter(t)
	l := openTest(t, t.TempDir(), func(o *Options) {
		o.CommitInterval = time.Millisecond
		o.Logf = logf
	})
	if err := l.Append("a", KindFull, 1, 0, blobFor("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	dead, err := os.Create(filepath.Join(t.TempDir(), "dead.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	l.mu.Lock()
	active := l.active
	l.active, l.dirty = dead, true // written, uncovered: the next commit fsyncs it
	l.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		failed := l.err
		l.mu.Unlock()
		if failed != nil {
			if !errors.Is(failed, os.ErrClosed) {
				t.Fatalf("sticky failure %v, want the committer's fsync of the closed segment", failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the committer never failed over a closed active segment")
		}
	}
	l.mu.Lock()
	l.active = active // so Close closes the real segment
	l.mu.Unlock()

	if err := l.Append("b", KindFull, 1, 0, blobFor("b", 1)); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append after a failed off-lock fsync = %v, want ErrFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync after a failed off-lock fsync = %v, want ErrFailed", err)
	}
	if err := l.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Close after a failed off-lock fsync = %v, want ErrFailed", err)
	}
	if n := failures(); n != 1 {
		t.Fatalf("Logf saw the failure %d times, want once", n)
	}
}

// TestLogSyncSeesFailedOffLockFsync: the kernel reports a writeback
// error to one fsync of a file, so a commit under the lock that follows
// a failed committer fsync must fail with it, not fsync again and report
// success over the pages the failed one lost — even in the window before
// the committer has re-taken the lock to record its failure.
func TestLogSyncSeesFailedOffLockFsync(t *testing.T) {
	logf, failures := failureCounter(t)
	l := openTest(t, t.TempDir(), func(o *Options) { o.Logf = logf })
	if err := l.Append("a", KindFull, 1, 0, blobFor("a", 1)); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	f := l.beginCommitLocked()
	l.mu.Unlock()
	if f == nil {
		t.Fatal("no commit begun over an appended record")
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }() // nothing written since the commit began
	// Once Sync holds the lock it is queued on the in-flight fsync: it
	// cannot finish until endCommit releases syncMu.
	for l.mu.TryLock() {
		l.mu.Unlock()
		select {
		case err := <-synced:
			t.Fatalf("Sync returned (%v) while the committer's fsync was in flight", err)
		case <-time.After(time.Millisecond):
		}
	}
	eio := errors.New("injected writeback error")
	l.endCommit(eio)
	if err := <-synced; !errors.Is(err, ErrFailed) || !errors.Is(err, eio) {
		t.Fatalf("Sync after a failed off-lock fsync = %v, want ErrFailed wrapping it", err)
	}
	if err := l.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Close after a failed off-lock fsync = %v, want ErrFailed", err)
	}
	if n := failures(); n != 1 {
		t.Fatalf("Logf saw the failure %d times, want once", n)
	}
}
