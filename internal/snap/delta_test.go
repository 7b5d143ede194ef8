package snap

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

func roundtripDelta(t *testing.T, base, target []byte) []byte {
	t.Helper()
	delta := MakeDelta(base, target)
	got, err := ApplyDelta(nil, base, delta)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("delta roundtrip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return delta
}

func TestDeltaRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := make([]byte, 4096)
	rng.Read(base)

	t.Run("identical", func(t *testing.T) {
		delta := roundtripDelta(t, base, base)
		if len(delta) > 64 {
			t.Fatalf("identical-input delta is %d bytes; want a handful of copy ops", len(delta))
		}
	})
	t.Run("empty-target", func(t *testing.T) {
		roundtripDelta(t, base, nil)
	})
	t.Run("empty-base", func(t *testing.T) {
		roundtripDelta(t, nil, base)
	})
	t.Run("point-mutations", func(t *testing.T) {
		target := append([]byte(nil), base...)
		for i := 0; i < 8; i++ {
			target[rng.Intn(len(target))] ^= 0xff
		}
		delta := roundtripDelta(t, base, target)
		if len(delta) >= len(target) {
			t.Fatalf("point-mutation delta (%d bytes) not smaller than target (%d)", len(delta), len(target))
		}
	})
	t.Run("append-growth", func(t *testing.T) {
		target := append(append([]byte(nil), base...), make([]byte, 512)...)
		rng.Read(target[len(base):])
		delta := roundtripDelta(t, base, target)
		if len(delta) >= len(target)/2 {
			t.Fatalf("append-growth delta (%d bytes) should be near the 512 appended bytes", len(delta))
		}
	})
	t.Run("insert-middle", func(t *testing.T) {
		ins := make([]byte, 100)
		rng.Read(ins)
		target := append(append(append([]byte(nil), base[:2000]...), ins...), base[2000:]...)
		roundtripDelta(t, base, target)
	})
	t.Run("unrelated", func(t *testing.T) {
		target := make([]byte, 4096)
		rng.Read(target)
		roundtripDelta(t, base, target)
	})
}

// TestDeltaRandomized fuzzes the encoder against randomized mutations
// of randomized bases: every (base, target) pair must roundtrip
// bit-identically.
func TestDeltaRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dm DeltaMaker
	var scratch []byte
	for iter := 0; iter < 200; iter++ {
		base := make([]byte, rng.Intn(2048))
		rng.Read(base)
		target := append([]byte(nil), base...)
		for m := rng.Intn(6); m > 0; m-- {
			switch rng.Intn(3) {
			case 0: // flip a byte
				if len(target) > 0 {
					target[rng.Intn(len(target))] ^= byte(1 + rng.Intn(255))
				}
			case 1: // insert a run
				if len(target) > 0 {
					at := rng.Intn(len(target))
					ins := make([]byte, rng.Intn(97))
					rng.Read(ins)
					target = append(target[:at], append(ins, target[at:]...)...)
				}
			case 2: // delete a run
				if len(target) > 10 {
					at := rng.Intn(len(target) - 10)
					n := rng.Intn(10)
					target = append(target[:at], target[at+n:]...)
				}
			}
		}
		delta := dm.AppendDelta(scratch[:0], base, target)
		scratch = delta
		got, err := ApplyDelta(nil, base, delta)
		if err != nil {
			t.Fatalf("iter %d: ApplyDelta: %v", iter, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("iter %d: roundtrip mismatch", iter)
		}
	}
}

// TestDeltaCorruption flips every byte of a real delta one at a time:
// ApplyDelta must never panic and must never silently return wrong
// output — every successful apply must still equal the target.
func TestDeltaCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 1024)
	rng.Read(base)
	target := append([]byte(nil), base...)
	target[100] ^= 0xff
	target = append(target, 0xAA, 0xBB, 0xCC)
	delta := MakeDelta(base, target)

	for i := range delta {
		mut := append([]byte(nil), delta...)
		mut[i] ^= 0x55
		got, err := ApplyDelta(nil, base, mut)
		if err == nil && !bytes.Equal(got, target) {
			t.Fatalf("byte %d: corrupt delta applied without error to wrong output", i)
		}
	}
	for cut := 0; cut < len(delta); cut++ {
		got, err := ApplyDelta(nil, base, delta[:cut])
		if err == nil && !bytes.Equal(got, target) {
			t.Fatalf("cut %d: truncated delta applied without error to wrong output", cut)
		}
	}
	// Wrong base: CRC must catch it.
	wrongBase := append([]byte(nil), base...)
	wrongBase[0] ^= 0xff
	if got, err := ApplyDelta(nil, wrongBase, delta); err == nil && !bytes.Equal(got, target) {
		t.Fatal("delta against mutated base applied without error to wrong output")
	}
}

// TestDeltaMakerSteadyStateAllocs pins that a warmed DeltaMaker
// encoding into a recycled buffer does not allocate.
func TestDeltaMakerSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := make([]byte, 4096)
	rng.Read(base)
	target := append([]byte(nil), base...)
	target[7] ^= 0x1
	target[4000] ^= 0x2

	var dm DeltaMaker
	buf := dm.AppendDelta(nil, base, target) // warm index + output
	allocs := testing.AllocsPerRun(100, func() {
		buf = dm.AppendDelta(buf[:0], base, target)
	})
	if allocs > 0 {
		t.Fatalf("warmed AppendDelta allocates %.1f/op; want 0", allocs)
	}
}

// referenceDelta is AppendDelta without the rolling update: it
// re-hashes every window of the target from scratch.
func referenceDelta(base, target []byte) []byte {
	var dm DeltaMaker
	var e Encoder
	e.Uint64(deltaVersion)
	e.Int(len(target))
	e.Uint64(uint64(crc32.ChecksumIEEE(target)))
	dm.index(base)
	litStart, i := 0, 0
	for i+deltaBlock <= len(target) {
		off := dm.lookup(windowHash(target[i : i+deltaBlock]))
		if off < 0 || !bytes.Equal(base[off:off+deltaBlock], target[i:i+deltaBlock]) {
			i++
			continue
		}
		for off > 0 && i > litStart && base[off-1] == target[i-1] {
			off--
			i--
		}
		ln := deltaBlock
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
	}
	if litStart < len(target) {
		e.Uint64(deltaOpLiteral)
		e.Blob(target[litStart:])
	}
	return e.Bytes()
}

// FuzzDelta requires AppendDelta to round-trip through ApplyDelta bit
// for bit, in both directions with one reused DeltaMaker, and to emit
// exactly what referenceDelta emits, which pins the rolling hash update
// to a from-scratch hash of every window. The target's bytes, read as a
// delta against the base, must never make ApplyDelta panic.
func FuzzDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 512)
	rng.Read(base)
	edited := append(append(append([]byte(nil), base[:200]...), "inserted run"...), base[150:]...)
	edited[400] ^= 0x10
	f.Add([]byte{}, []byte{})
	f.Add(base, base)
	f.Add(base, edited)
	f.Add(base[:100], base)
	f.Add(bytes.Repeat([]byte("abcdefg"), 40), bytes.Repeat([]byte("abcdefgh"), 40))
	f.Add(make([]byte, 256), append(make([]byte, 200), 1))
	f.Add(base, MakeDelta(base, edited))
	f.Fuzz(func(t *testing.T, base, target []byte) {
		var dm DeltaMaker
		for _, p := range [][2][]byte{{base, target}, {target, base}} {
			delta := dm.AppendDelta(nil, p[0], p[1])
			got, err := ApplyDelta(nil, p[0], delta)
			if err != nil || !bytes.Equal(got, p[1]) {
				t.Fatalf("round trip of %d→%d bytes: err %v, equal %v", len(p[0]), len(p[1]), err, bytes.Equal(got, p[1]))
			}
			if ref := referenceDelta(p[0], p[1]); !bytes.Equal(delta, ref) {
				t.Fatalf("rolling scan emitted %d bytes, re-hashing every window %d", len(delta), len(ref))
			}
		}
		ApplyDelta(nil, base, target)
	})
}

func BenchmarkDeltaEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 16<<10)
	rng.Read(base)
	target := append([]byte(nil), base...)
	for i := 0; i < 32; i++ {
		target[rng.Intn(len(target))] ^= 0xff
	}
	var dm DeltaMaker
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = dm.AppendDelta(buf[:0], base, target)
	}
}
