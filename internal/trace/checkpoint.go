package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/sched"
)

// Checkpoint container format: the durable wrapper around the state
// blob produced by sched.Stream.Snapshot. The layout is
//
//	offset  size  field
//	0       4     magic "RRCP"
//	4       4     container version, uint32 LE
//	8       8     payload length, uint64 LE
//	16      n     payload (the Snapshot blob)
//	16+n    4     CRC-32 (IEEE) of the payload, uint32 LE
//
// The container version covers only this wrapper; the payload carries
// its own version (sched.SnapshotVersion) checked by RestoreStream.
// ReadCheckpoint rejects corrupt, truncated or oversized input with an
// error — never a panic — and verifies the checksum before returning
// the payload.
const (
	checkpointMagic   = "RRCP"
	CheckpointVersion = 1

	checkpointHeaderLen = 16

	// maxCheckpointPayload bounds the payload length accepted by
	// ReadCheckpoint so a corrupt header cannot trigger an absurd
	// allocation. Real snapshots are kilobytes.
	maxCheckpointPayload = 1 << 30
)

// WriteCheckpoint writes state to w in the checkpoint container format.
func WriteCheckpoint(w io.Writer, state []byte) error {
	var hdr [checkpointHeaderLen]byte
	copy(hdr[:4], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], CheckpointVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(state)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(state); err != nil {
		return fmt.Errorf("trace: writing checkpoint payload: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(state))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("trace: writing checkpoint checksum: %w", err)
	}
	return nil
}

// ReadCheckpoint reads one checkpoint container from r and returns its
// payload. All failure modes — bad magic, unsupported version, oversized
// or truncated payload, checksum mismatch, trailing garbage — are
// reported as errors.
func ReadCheckpoint(r io.Reader) ([]byte, error) {
	var hdr [checkpointHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading checkpoint header: %w", err)
	}
	if string(hdr[:4]) != checkpointMagic {
		return nil, fmt.Errorf("trace: not a checkpoint file (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != CheckpointVersion {
		return nil, fmt.Errorf("trace: checkpoint container version %d, this build reads %d", v, CheckpointVersion)
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > maxCheckpointPayload {
		return nil, fmt.Errorf("trace: checkpoint payload length %d exceeds limit %d", n, maxCheckpointPayload)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("trace: checkpoint payload truncated: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("trace: checkpoint checksum truncated: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("trace: checkpoint checksum mismatch (payload %08x, recorded %08x)", got, want)
	}
	// A checkpoint file holds exactly one container; trailing bytes mean
	// the file was corrupted or double-written.
	var extra [1]byte
	switch _, err := r.Read(extra[:]); err {
	case io.EOF:
	case nil:
		return nil, errors.New("trace: trailing bytes after checkpoint")
	default:
		return nil, fmt.Errorf("trace: reading past checkpoint: %w", err)
	}
	return payload, nil
}

// SaveCheckpoint snapshots st and writes the checkpoint atomically to
// path: the container goes to a temporary file in the same directory
// which is fsynced and renamed into place, so a crash mid-write leaves
// any previous checkpoint at path intact.
func SaveCheckpoint(path string, st *sched.Stream) error {
	state, err := st.Snapshot()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("trace: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteCheckpoint(tmp, state); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("trace: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("trace: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("trace: publishing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the checkpoint at path and restores a live
// stream from it using pol (which must match the policy the checkpoint
// was taken with) and probe (nil for none).
func LoadCheckpoint(path string, pol sched.Policy, probe sched.Probe) (*sched.Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening checkpoint: %w", err)
	}
	defer f.Close()
	state, err := ReadCheckpoint(f)
	if err != nil {
		return nil, err
	}
	return sched.RestoreStream(pol, state, probe)
}
