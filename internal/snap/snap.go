// Package snap is the binary codec underneath the checkpoint/restore
// subsystem (docs/CHECKPOINT.md): a deterministic, allocation-lean
// encoder and a sticky-error decoder that policies, containers, the
// round engine and the trace container format all share.
//
// Design rules:
//
//   - Deterministic: encoding the same state always yields the same
//     bytes (map-backed state must be written in a canonical order by
//     the caller), so snapshot → restore → snapshot is byte-identical —
//     the property the checkpoint tests pin.
//   - Defensive: the Decoder never panics on corrupt or truncated
//     input. Every read is bounds-checked; the first failure sticks and
//     every later read returns a zero value, so callers may decode a
//     whole structure and check Err once. Collection lengths go through
//     Len, which rejects counts that could not possibly fit the
//     remaining bytes, bounding attacker-controlled allocations.
//   - Compact: integers use varint/zigzag encoding; floats are 8 fixed
//     bytes so bit patterns survive exactly.
//
// The package has no dependencies, so every layer of the repository —
// container, colorstate, policy, core, sched, trace — can use it
// without import cycles.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends values to a growing byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal storage; copy it if the encoder will be reused.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder to empty while keeping its backing
// storage, so a long-lived encoder (a connection handler encoding one
// frame per request) reaches a steady state with no per-frame
// allocation. Any slice previously obtained from Bytes is invalidated.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Attach makes buf the encoder's backing storage; subsequent writes
// append after buf's existing bytes. Callers that own a pooled buffer
// pass buf[:0] to encode into it without allocating, then take the
// (possibly re-grown) storage back via Bytes. Attach(nil) detaches the
// encoder from caller-owned storage.
func (e *Encoder) Attach(buf []byte) { e.buf = buf }

// Uint64 appends v as an unsigned varint.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends v as a zigzag-encoded varint.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends v as a zigzag-encoded varint.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Bool appends b as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends the exact IEEE-754 bit pattern of f as 8 little-endian
// bytes, so restored floating-point state is bit-identical.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// PutFloat64 overwrites the float a Float64 call appended at offset at
// (the encoder's Len just before that call), for a field whose value is
// known only after later fields were encoded.
func (e *Encoder) PutFloat64(at int, f float64) {
	binary.LittleEndian.PutUint64(e.buf[at:at+8], math.Float64bits(f))
}

// String appends s length-prefixed.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Ints appends vs length-prefixed.
func (e *Encoder) Ints(vs []int) {
	e.Int(len(vs))
	for _, v := range vs {
		e.Int(v)
	}
}

// Blob appends b length-prefixed, for nested opaque payloads (a
// checkpoint blob carried inside a wire frame).
func (e *Encoder) Blob(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// Decoder consumes a byte buffer produced by an Encoder. Errors are
// sticky: after the first failure every read returns a zero value and
// Err reports the failure, so a caller can decode a whole structure and
// check once at the end. The decoder never panics on corrupt input.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Reset makes d decode data from its start, clearing any error, so a
// long-lived decoder (a client reading one response per call) reaches a
// steady state with no per-frame allocation.
func (d *Decoder) Reset(data []byte) { *d = Decoder{data: data} }

// Err reports the first decoding failure, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of bytes not yet consumed.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Failf records a semantic error (wrong version, inconsistent state…)
// found by the caller mid-decode; like intrinsic decode errors it is
// sticky and surfaces through Err. The first error wins.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Done reports the sticky error if any, and otherwise fails unless the
// input was consumed exactly — trailing garbage is as much a corruption
// signal as truncation.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("snap: %d trailing bytes after decoding", len(d.data)-d.off)
	}
	return nil
}

// Uint64 reads an unsigned varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.Failf("snap: truncated or malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a zigzag-encoded varint.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.Failf("snap: truncated or malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag-encoded varint as an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool reads one byte that must be exactly 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.Failf("snap: truncated bool at offset %d", d.off)
		return false
	}
	b := d.data[d.off]
	if b > 1 {
		d.Failf("snap: invalid bool byte %d at offset %d", b, d.off)
		return false
	}
	d.off++
	return b == 1
}

// Float64 reads an 8-byte IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.Failf("snap: truncated float64 at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len()
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s
}

// StringCached reads a length-prefixed string, returning prev — without
// allocating — when the encoded bytes equal it. A decoder reused across
// frames (a connection decoding the same tenant ID on every submit)
// reaches a zero-allocation steady state this way.
func (d *Decoder) StringCached(prev string) string {
	n := d.Len()
	if d.err != nil {
		return ""
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	if string(b) == prev { // comparison, not conversion: no allocation
		return prev
	}
	return string(b)
}

// Len reads a collection length and validates it against the remaining
// input: lengths are non-negative and every element of every collection
// this codec writes occupies at least one byte, so a length exceeding
// the remaining byte count proves corruption. This check bounds the
// allocation a corrupt length can trigger.
func (d *Decoder) Len() int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 {
		d.Failf("snap: negative length %d at offset %d", n, d.off)
		return 0
	}
	if n > d.Remaining() {
		d.Failf("snap: length %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte slice into a fresh copy. A nil
// slice is returned for length zero, matching the encoder's treatment
// of nil.
func (d *Decoder) Blob() []byte {
	return d.AppendBlob(nil)
}

// AppendBlob reads a length-prefixed byte slice appending onto dst
// (which may be nil), so steady-state decoders can reuse one buffer
// across frames. A zero-length blob returns dst unchanged.
func (d *Decoder) AppendBlob(dst []byte) []byte {
	n := d.Len()
	if d.err != nil || n == 0 {
		return dst
	}
	dst = append(dst, d.data[d.off:d.off+n]...)
	d.off += n
	return dst
}

// Ints reads a length-prefixed []int. A nil slice is returned for
// length zero, matching the encoder's treatment of nil.
func (d *Decoder) Ints() []int {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return vs
}
