package proxy

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// tee replicates mutating request frames to the warm-standby backend:
// a bounded FIFO drained by one worker goroutine onto one standby
// connection, fire-and-forget. The standby runs the same per-tenant
// sequence-checked admission as any backend, so the tee needs no
// acknowledgement protocol: a dropped or re-sent frame shows up there
// as a sequence gap or duplicate and is rejected, leaving the standby a
// consistent prefix of the primary's ingest — behind by at most the
// buffer, never corrupt. On overflow or a standby outage, frames are
// dropped and counted (drop-to-checkpoint: failover then falls back to
// the clients' sequence rewind for the gap).
type tee struct {
	addr string
	logf func(format string, args ...any)

	ch      chan []byte
	done    chan struct{}
	stopped chan struct{}
	dropped atomic.Int64
}

// teeBuffer bounds the tee's frame buffer: how far the standby may
// trail the primaries before frames are dropped.
const teeBuffer = 4096

func newTee(addr string, logf func(string, ...any)) *tee {
	t := &tee{
		addr:    addr,
		logf:    logf,
		ch:      make(chan []byte, teeBuffer),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go t.run()
	return t
}

// enqueue stages one frame for the standby, copying it (the caller's
// buffer is reused for the next frame). A full buffer drops the frame.
func (t *tee) enqueue(body []byte) {
	frame := append([]byte(nil), body...)
	select {
	case t.ch <- frame:
	default:
		if t.dropped.Add(1) == 1 {
			t.logf("proxy: standby tee overflow; standby will trail until failover rewind")
		}
	}
}

// close stops the worker after it drains what is already buffered.
func (t *tee) close() {
	close(t.done)
	<-t.stopped
}

// run is the tee worker: dial the standby lazily, write frames in
// arrival order, flush when the buffer runs dry, and discard the
// standby's responses. A write or dial failure drops the in-hand frame,
// closes the connection, and backs off one dial timeout before redialing —
// the standby being down must cost the hot path nothing.
func (t *tee) run() {
	defer close(t.stopped)
	var conn net.Conn
	var bw *bufio.Writer
	var lastFail time.Time
	disconnect := func() {
		if conn != nil {
			conn.Close()
			conn, bw = nil, nil
		}
		lastFail = time.Now()
	}
	defer func() {
		if bw != nil {
			bw.Flush()
		}
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var frame []byte
		select {
		case frame = <-t.ch:
		case <-t.done:
			// Drain what was already staged, then stop.
			select {
			case frame = <-t.ch:
			default:
				return
			}
		}
		if conn == nil {
			if time.Since(lastFail) < dialTimeout {
				t.dropped.Add(1)
				continue
			}
			c, err := net.DialTimeout("tcp", t.addr, dialTimeout)
			if err != nil {
				t.dropped.Add(1)
				disconnect()
				continue
			}
			conn, bw = c, bufio.NewWriter(c)
			// Discard responses: admission rejections (sequence gaps after
			// a drop) are the standby healing itself, not errors to relay.
			go io.Copy(io.Discard, c)
		}
		if err := serve.WriteFrame(bw, frame); err != nil {
			t.dropped.Add(1)
			disconnect()
			continue
		}
		if len(t.ch) == 0 {
			if err := bw.Flush(); err != nil {
				disconnect()
			}
		}
	}
}
