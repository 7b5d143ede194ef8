// Binary delta encoding between two opaque byte strings. The
// group-commit checkpoint log (docs/CHECKPOINT.md "Full records only")
// resolves delta records against their full record with ApplyDelta;
// the server appends full records only, so those deltas come from
// older builds. The scheme is a greedy block-match in the rsync family:
// the base is indexed at block-aligned offsets, the target is scanned
// byte by byte under a rolling hash of the block-sized window starting
// there, and runs that match the base verbatim become COPY ops while
// everything else becomes LITERAL bytes. A delta embeds the
// target's exact length and CRC-32, so ApplyDelta either reproduces
// the target bit-identically or fails loudly — it never panics on
// corrupt input, matching the Decoder's defensive contract.

package snap

import (
	"fmt"
	"hash/crc32"
	"math/bits"
)

const (
	// deltaVersion is the format version embedded in every delta.
	deltaVersion = 1
	// deltaBlock is the match granularity: the base is indexed at this
	// alignment. Smaller blocks find more matches but cost more index
	// space; 32 suits the few-KiB snapshot blobs the checkpoint path
	// produces.
	deltaBlock = 32
	// hashMul is the rolling hash's multiplier: any odd constant whose
	// bits are well spread.
	hashMul = 0x9e3779b97f4a7c15
	// maxDeltaTarget bounds the declared output size so a corrupt delta
	// cannot trigger an unbounded allocation.
	maxDeltaTarget = 1 << 30

	deltaOpCopy    = 0
	deltaOpLiteral = 1
)

// DeltaMaker computes deltas, retaining its block-index storage across
// calls so steady-state delta encoding does not allocate (beyond output
// growth). The zero value is ready to use. Not safe for concurrent use.
type DeltaMaker struct {
	keys  []uint64 // open-addressed block hash table: hashed block content
	offs  []int32  // base offset per slot; -1 marks an empty slot
	shift uint     // 64 - log2(len(keys)): a hash's slot is its top bits
}

// MakeDelta computes a delta that transforms base into target. It is
// the convenience form of new(DeltaMaker).AppendDelta(nil, base, target).
func MakeDelta(base, target []byte) []byte {
	var dm DeltaMaker
	return dm.AppendDelta(nil, base, target)
}

// windowHash hashes one block as the polynomial Σ b[i]·hashMul^(n−i)
// mod 2^64, the form roll updates in O(1). Every byte, the last one
// too, is multiplied into the top bits, which pick a table slot. The
// index and the scan share it, so a block of the target hashes as the
// same block of the base.
func windowHash(b []byte) uint64 {
	var h uint64
	for _, c := range b {
		h = (h + uint64(c)) * hashMul
	}
	return h
}

// hashOut is hashMul^deltaBlock, the weight of a window's first byte,
// which roll subtracts as the byte leaves.
var hashOut = func() uint64 {
	m := uint64(1)
	for i := 0; i < deltaBlock; i++ {
		m *= hashMul
	}
	return m
}()

// roll slides a window's hash h one byte: out leaves at the front, in
// joins at the back.
func roll(h uint64, out, in byte) uint64 {
	return (h - uint64(out)*hashOut + uint64(in)) * hashMul
}

// index (re)builds the block hash table over base. Later blocks
// overwrite earlier same-hash slots, biasing matches toward the end of
// the base; for snapshot blobs (append-heavy growth) that is the
// profitable direction.
func (dm *DeltaMaker) index(base []byte) {
	nBlocks := len(base) / deltaBlock
	size := 1
	for size < 2*nBlocks {
		size <<= 1
	}
	if size < 8 {
		size = 8
	}
	dm.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if cap(dm.keys) < size {
		dm.keys = make([]uint64, size)
		dm.offs = make([]int32, size)
	}
	dm.keys = dm.keys[:size]
	dm.offs = dm.offs[:size]
	for i := range dm.offs {
		dm.offs[i] = -1
	}
	mask := uint64(size - 1)
	for off := 0; off+deltaBlock <= len(base); off += deltaBlock {
		h := windowHash(base[off : off+deltaBlock])
		slot := h >> dm.shift
		for probes := 0; dm.offs[slot] >= 0 && dm.keys[slot] != h; probes++ {
			if probes >= 8 {
				// Bounded probing: give up on this block rather than
				// degrade into a linear scan on adversarial content.
				slot = mask + 1
				break
			}
			slot = (slot + 1) & mask
		}
		if slot <= mask {
			dm.keys[slot] = h
			dm.offs[slot] = int32(off)
		}
	}
}

// lookup returns the base offset whose indexed block hashes to h, or -1.
func (dm *DeltaMaker) lookup(h uint64) int {
	mask := uint64(len(dm.keys) - 1)
	slot := h >> dm.shift
	for probes := 0; probes < 9; probes++ {
		off := dm.offs[slot]
		if off < 0 {
			return -1
		}
		if dm.keys[slot] == h {
			return int(off)
		}
		slot = (slot + 1) & mask
	}
	return -1
}

// AppendDelta appends to dst a delta transforming base into target and
// returns the extended slice. dst may be nil or a recycled buffer
// (pass buf[:0]). The result is self-contained against base only —
// deltas never chain.
func (dm *DeltaMaker) AppendDelta(dst, base, target []byte) []byte {
	var e Encoder
	e.Attach(dst)
	e.Uint64(deltaVersion)
	e.Int(len(target))
	e.Uint64(uint64(crc32.ChecksumIEEE(target)))

	dm.index(base)

	litStart := 0 // start of the pending literal run
	i := 0
	var h uint64 // hash of target[i:i+deltaBlock]
	if len(target) >= deltaBlock {
		h = windowHash(target[:deltaBlock])
	}
	for i+deltaBlock <= len(target) {
		off := dm.lookup(h)
		if off < 0 || string(base[off:off+deltaBlock]) != string(target[i:i+deltaBlock]) {
			if i+deltaBlock < len(target) {
				h = roll(h, target[i], target[i+deltaBlock])
			}
			i++
			continue
		}
		// Verified match. Extend backward into the pending literal…
		for off > 0 && i > litStart && base[off-1] == target[i-1] {
			off--
			i--
		}
		ln := deltaBlock
		// …and forward past the block.
		for off+ln < len(base) && i+ln < len(target) && base[off+ln] == target[i+ln] {
			ln++
		}
		if litStart < i {
			e.Uint64(deltaOpLiteral)
			e.Blob(target[litStart:i])
		}
		e.Uint64(deltaOpCopy)
		e.Int(off)
		e.Int(ln)
		i += ln
		litStart = i
		if i+deltaBlock <= len(target) {
			h = windowHash(target[i : i+deltaBlock])
		}
	}
	if litStart < len(target) {
		e.Uint64(deltaOpLiteral)
		e.Blob(target[litStart:])
	}
	return e.Bytes()
}

// ApplyDelta reconstructs the target from base and a delta produced by
// AppendDelta, appending onto dst (which may be nil). It validates the
// version, every COPY range, the declared output length and the
// embedded CRC-32; any inconsistency returns an error and never
// panics, so a corrupt checkpoint record is a loud recovery failure
// rather than silent state divergence.
func ApplyDelta(dst, base, delta []byte) ([]byte, error) {
	d := NewDecoder(delta)
	if v := d.Uint64(); d.Err() == nil && v != deltaVersion {
		d.Failf("snap: unsupported delta version %d", v)
	}
	want := d.Int()
	if d.Err() == nil && (want < 0 || want > maxDeltaTarget) {
		d.Failf("snap: implausible delta target length %d", want)
	}
	wantCRC := uint32(d.Uint64())
	start := len(dst)
	for d.Err() == nil && d.Remaining() > 0 {
		switch op := d.Uint64(); op {
		case deltaOpCopy:
			off := d.Int()
			ln := d.Int()
			if d.Err() != nil {
				break
			}
			if off < 0 || ln < 0 || off > len(base) || ln > len(base)-off {
				d.Failf("snap: delta copy [%d,+%d) outside %d-byte base", off, ln, len(base))
				break
			}
			if len(dst)-start+ln > want {
				d.Failf("snap: delta output exceeds declared length %d", want)
				break
			}
			dst = append(dst, base[off:off+ln]...)
		case deltaOpLiteral:
			n := d.Len()
			if d.Err() != nil {
				break
			}
			if len(dst)-start+n > want {
				d.Failf("snap: delta output exceeds declared length %d", want)
				break
			}
			dst = append(dst, d.data[d.off:d.off+n]...)
			d.off += n
		default:
			d.Failf("snap: unknown delta op %d", op)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := dst[start:]
	if len(out) != want {
		return nil, fmt.Errorf("snap: delta produced %d bytes, declared %d", len(out), want)
	}
	if got := crc32.ChecksumIEEE(out); got != wantCRC {
		return nil, fmt.Errorf("snap: delta output CRC %08x, declared %08x", got, wantCRC)
	}
	return dst, nil
}
