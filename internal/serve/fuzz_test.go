package serve

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/sched"
	"repro/internal/snap"
)

// fuzzServer builds a listener-less server with one live tenant, so the
// fuzzer reaches every request handler including the tenant-addressed
// ones. The shard workers never run — admitted ticks just queue — which
// is fine: the property under test is the decode path, not scheduling.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	cfg := Config{}
	cfg.fill()
	s := &Server{
		cfg:       cfg,
		tenants:   make(map[string]*tenant),
		conns:     make(map[net.Conn]struct{}),
		stopShard: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{wake: make(chan struct{}, 1)})
	}
	if _, er := s.open(&openMsg{Version: ProtocolVersion, Tenant: "fuzz", Config: fuzzConfig}); er != nil {
		f.Fatalf("opening fuzz tenant: %s", er.Msg)
	}
	return s
}

// fuzzConfig is the configuration of the fuzz tenants.
var fuzzConfig = TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}

// FuzzFrameDecode pins the server's central robustness contract: no
// byte sequence — malformed, truncated, bit-flipped, or adversarial —
// may panic the frame reader or the request processor. Every input
// either decodes to a well-formed request or produces an error response
// / connection close.
func FuzzFrameDecode(f *testing.F) {
	// Seed with a valid tag-first encoding of every message type, so
	// mutations explore each handler's decode path, not just the type
	// switch.
	seed := func(tag uint64, build func(e *snap.Encoder)) {
		e := snap.NewEncoder()
		e.Uint64(tag)
		build(e)
		var frame bytes.Buffer
		bw := bufio.NewWriter(&frame)
		if err := writeFrame(bw, e.Bytes()); err != nil {
			f.Fatal(err)
		}
		bw.Flush()
		f.Add(frame.Bytes())
	}
	reserved := fuzzConfig
	reserved.Weight, reserved.ResRate, reserved.ResDelay = 1, 0.25, 32
	seed(1, func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: "fuzz", Config: fuzzConfig}).encode(e)
	})
	seed(2, func(e *snap.Encoder) { // a strict submit: a batch of one
		(&batchMsg{Tenant: "fuzz", Seq: 0, Ticks: []sched.Request{
			{{Color: 0, Count: 2}, {Color: 1, Count: 1}}}}).encode(e)
	})
	seed(3, func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: ""}).encode(e) })
	seed(4, func(e *snap.Encoder) { (&tenantMsg{Type: msgCloseTenant, Tenant: "fuzz"}).encode(e) })
	seed(5, func(e *snap.Encoder) { (&tenantMsg{Type: msgDrain, Tenant: "fuzz"}).encode(e) })
	seed(6, func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: "fuzz"}).encode(e) })
	seed(7, func(e *snap.Encoder) { (&tenantMsg{Type: msgCloseTenant, Tenant: "nope"}).encode(e) })
	seed(8, func(e *snap.Encoder) { (&tenantMsg{Type: msgDrain, Tenant: "nope"}).encode(e) })
	seed(9, func(e *snap.Encoder) { (&errResp{Code: codeBadSeq, Expected: 3, Msg: "x"}).encode(e) })
	// The largest tag a client issues, on a submit and a stats read-out.
	seed(tagSpace-1, func(e *snap.Encoder) {
		(&batchMsg{Tenant: "fuzz", Seq: 0, Ticks: []sched.Request{{{Color: 0, Count: 2}}}}).encode(e)
	})
	seed(tagSpace-1, func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: ""}).encode(e) })
	// Types 6 and 7 carried restore and release up to protocol 10. They
	// are unknown types now, whatever follows them: the server must
	// refuse them and close.
	seed(10, func(e *snap.Encoder) { retiredRestore(e, "fuzz2", fuzzConfig) })
	seed(11, func(e *snap.Encoder) { (&tenantMsg{Type: 7, Tenant: "fuzz"}).encode(e) })
	seed(12, func(e *snap.Encoder) {
		(&batchMsg{Tenant: "fuzz", Seq: 0, Ticks: []sched.Request{
			{{Color: 0, Count: 1}}, nil, {{Color: 1, Count: 2}, {Color: 0, Count: 1}},
		}}).encode(e)
	})
	seed(13, func(e *snap.Encoder) {
		(&batchMsg{Tenant: "fuzz", Seq: 3, Ticks: []sched.Request{{{Color: 1, Count: 1}}}}).encode(e)
	})
	// A reserved open and retired restore, and a stats read-out that
	// answers with an error (the tenant does not exist).
	seed(14, func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: "fuzz3", Config: reserved}).encode(e)
	})
	seed(15, func(e *snap.Encoder) { retiredRestore(e, "fuzz4", reserved) })
	seed(16, func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: "nope"}).encode(e) })
	// A batch claiming far more rounds than it carries — the decoder must
	// bound allocation by MaxBatch and reject, never trust the count.
	seed(17, func(e *snap.Encoder) {
		e.Uint64(msgSubmitBatch)
		e.String("fuzz")
		e.Int(0)
		e.Int(1 << 40)
	})
	// An open at the previous protocol version, and a type past the last
	// one.
	seed(18, func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion - 1, Tenant: "fuzz5", Config: fuzzConfig}).encode(e)
	})
	seed(19, func(e *snap.Encoder) { e.Uint64(msgCloseTenant + 1) })
	// A tag with no type behind it.
	seed(20, func(*snap.Encoder) {})
	// An open in the version-7 layout, which had no leading tag: its
	// message type now reads as the tag and its version as the type.
	f.Add(func() []byte {
		e := snap.NewEncoder()
		(&openMsg{Version: 7, Tenant: "fuzz6", Config: fuzzConfig}).encode(e)
		var frame bytes.Buffer
		bw := bufio.NewWriter(&frame)
		writeFrame(bw, e.Bytes())
		bw.Flush()
		return frame.Bytes()
	}())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame reader must survive arbitrary streams: truncated
		// headers, oversized lengths, short bodies.
		if body, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil); err == nil {
			processBody(t, s, body)
		}
		// And the processor must survive arbitrary bodies directly, as
		// if a well-framed but hostile payload arrived.
		processBody(t, s, data)
	})
}

// retiredRestore encodes a restore request as protocol 10 laid it out
// under type 6: the open request's fields, then a snapshot blob.
func retiredRestore(e *snap.Encoder, tenant string, tc TenantConfig) {
	e.Uint64(6)
	e.Int(10)
	e.String(tenant)
	tc.encode(e)
	e.Blob([]byte{1, 2, 3})
}

func processBody(t *testing.T, s *Server, body []byte) {
	t.Helper()
	var cs connState
	enc := snap.NewEncoder()
	before, hadTenant := 0, false
	if ft := s.tenant("fuzz"); ft != nil {
		before, hadTenant = ft.nextSeq(), true
	}
	info, perr := PeekRequest(body)
	closeConn := s.process(body, &cs, enc)
	// Whatever happened, the server must have staged a response frame
	// that fits the protocol (process always encodes either a success
	// or an error response), under the request's tag when it had one.
	d := snap.NewDecoder(enc.Bytes())
	tag, _ := d.Uint64(), d.Uint64()
	if d.Err() != nil {
		t.Fatalf("response has no tag and message type for body %x", body)
	}
	want := snap.NewDecoder(body).Uint64()
	if tag != want {
		t.Fatalf("response tag %d, request tag %d (body %x)", tag, want, body)
	}
	// rrproxy peeks every frame before it relays one, and answers a
	// frame the peek rejects with a bad request and a close: the server
	// must close on every such frame too, and a peek that succeeds must
	// read the request's tag.
	if perr != nil && !closeConn {
		t.Fatalf("PeekRequest rejected a frame the server kept the connection for: %v (body %x)", perr, body)
	}
	if perr == nil && info.Tag != want {
		t.Fatalf("PeekRequest tag %d, request tag %d (body %x)", info.Tag, want, body)
	}
	// Malformed frames (the ones that close the connection) are rejected
	// atomically: in particular a submit batch with a mangled tail must
	// not leave a partial sequence advance behind.
	if closeConn && hadTenant {
		if ft := s.tenant("fuzz"); ft != nil && ft.nextSeq() != before {
			t.Fatalf("malformed frame advanced the tenant sequence %d -> %d (body %x)",
				before, ft.nextSeq(), body)
		}
	}
	// A mutated close frame can legitimately remove the fuzz tenant;
	// re-open it so later inputs still reach the tenant-addressed
	// handlers.
	if s.tenant("fuzz") == nil {
		s.open(&openMsg{Version: ProtocolVersion, Tenant: "fuzz", Config: fuzzConfig})
	}
}

// FuzzResponseDecode pins the client's one receive path: whatever
// response frame comes back — truncated, mistagged, mistyped or well
// formed — neither a synchronous call nor a pipelined reap may panic;
// a response that is not an exact answer under the request's own tag
// poisons the client, so every later call fails with the same error,
// and one that is leaves it healthy. The stats call runs on clients
// whose cache holds none, some or all of cachedIDs from a previous
// read-out, so a response has more rows than the cache or fewer, and a
// stats answer must decode to the rows a fresh client reads.
func FuzzResponseDecode(f *testing.F) {
	// A fresh client's first request carries tag 1.
	seed := func(tag uint64, build func(e *snap.Encoder)) {
		e := snap.NewEncoder()
		e.Uint64(tag)
		build(e)
		f.Add(e.Bytes())
	}
	row := TenantStats{ID: "fuzz", Policy: "EDF", Round: 3, NextSeq: 4, Weight: 1, MinDelay: 2}
	log := DuraStats{Appends: 4, Bytes: 400, Fsyncs: 1, Segments: 1}
	fleet := DuraStats{Appends: 4, Bytes: 400, Fsyncs: 1, Segments: 1,
		Backends: []BackendDuraStats{{Addr: "127.0.0.1:1", DuraStats: log}, {Addr: "127.0.0.1:2"}}}
	off := DuraStats{}
	seed(1, func(e *snap.Encoder) { encodeStatsResp(e, []TenantStats{row}, &log) })
	seed(1, func(e *snap.Encoder) { encodeStatsResp(e, []TenantStats{row}, &fleet) })
	seed(1, func(e *snap.Encoder) { encodeStatsResp(e, nil, &off) })
	seed(1, func(e *snap.Encoder) { // the cached IDs with one changed, and one more row
		rows := []TenantStats{row, {ID: "b", Policy: "EDF"}, {ID: "c", Policy: "ΔLRU-EDF"}, {ID: "d", Policy: "EDF"}}
		encodeStatsResp(e, rows, &log)
	})
	seed(1, func(e *snap.Encoder) { (&batchResp{Admitted: 1, Round: 1, QueueDepth: 1}).encode(e) })
	seed(1, func(e *snap.Encoder) {
		(&batchResp{Round: 1, QueueDepth: 4, Err: &errResp{Code: codeOverloaded, Msg: "full"}}).encode(e)
	})
	seed(1, func(e *snap.Encoder) { (&errResp{Code: codeBadSeq, Expected: 9, Msg: "bad seq"}).encode(e) })
	seed(1, func(e *snap.Encoder) { (&errResp{Code: codeAdmission, ResidualRate: 0.5, ResidualDelay: 1}).encode(e) })
	seed(2, func(e *snap.Encoder) { encodeStatsResp(e, nil, &off) })               // a tag nothing is waiting for
	seed(1, func(e *snap.Encoder) { encodeResult(e, msgDrain, &sched.Result{}) })  // a type the request did not ask for
	seed(1, func(*snap.Encoder) {})                                                // a tag with no type
	seed(1, func(e *snap.Encoder) { e.Uint64(msgTenantStats) })                    // a type with no fields
	seed(1, func(e *snap.Encoder) { encodeStatsResp(e, nil, &off); e.Bool(true) }) // a trailing byte
	seed(1, func(e *snap.Encoder) {                                                // rows without the counter block
		e.Uint64(msgTenantStats)
		e.Int(1)
		row.encode(e)
	})
	f.Add([]byte{})

	ticks := []sched.Request{{{Color: 0, Count: 1}}}
	cachedIDs := []string{"fuzz", "a", "c"}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, run := range []struct {
			pipelined bool
			cached    int
		}{{true, 0}, {false, 0}, {false, 1}, {false, len(cachedIDs)}} {
			pipelined := run.pipelined
			c := respondOnce(t, body)
			cacheStats(t, c, cachedIDs[:run.cached])
			var err error
			want := uint64(msgTenantStats)
			if pipelined {
				want = msgSubmitBatch
				err = c.NewPipeline(1, func(SubmitResult) {}).SubmitBatch("fuzz", 0, ticks)
			} else {
				var rows []TenantStats
				rows, err = c.Stats("")
				if err == nil && !bytes.Equal(statsBytes(rows), statsBytes(freshStatsRows(body))) {
					t.Fatalf("response %x: a client caching %d IDs decoded %+v, a fresh one %+v", body, run.cached, rows, freshStatsRows(body))
				}
			}
			poisoned := c.err != nil
			switch {
			case poisoned == wellFormed(body, want):
				t.Fatalf("pipelined %v: response %x: poisoned %v, want %v (err %v)", pipelined, body, poisoned, !poisoned, err)
			case poisoned && err == nil:
				t.Fatalf("pipelined %v: response %x poisoned the client but the call succeeded", pipelined, body)
			case !poisoned && err != nil && (pipelined || !isRemote(err)):
				t.Fatalf("pipelined %v: response %x failed the call with %v but left the client healthy", pipelined, body, err)
			}
			if poisoned {
				if _, perr := c.Stats(""); perr != c.err {
					t.Fatalf("poisoned client answered a later call with %v, want its sticky %v", perr, c.err)
				}
			}
			c.Close()
		}
	})
}

// cacheStats leaves c's stats cache as a previous read-out with one row
// per ID in ids would.
func cacheStats(t *testing.T, c *Client, ids []string) {
	t.Helper()
	rows := make([]TenantStats, len(ids))
	for i, id := range ids {
		rows[i] = TenantStats{ID: id, Policy: "EDF"}
	}
	d := snap.NewDecoder(statsBytes(rows))
	d.Uint64() // the type
	c.stats.decode(d)
	if err := d.Done(); err != nil || len(c.stats.ids) != len(ids) {
		t.Fatalf("caching %d IDs: %v", len(ids), err)
	}
}

// statsBytes encodes rows as a stats response (type onwards), the form
// two decodes of one response are compared in: a fuzzed float may be a
// NaN, which no == holds for.
func statsBytes(rows []TenantStats) []byte {
	e := snap.NewEncoder()
	encodeStatsResp(e, rows, &DuraStats{})
	return e.Bytes()
}

// freshStatsRows decodes the rows of a well-formed stats response body
// (tag onwards) as a client with nothing cached does.
func freshStatsRows(body []byte) []TenantStats {
	d := snap.NewDecoder(body)
	d.Uint64() // the tag
	d.Uint64() // the type
	rows, _ := decodeStatsResp(d)
	return rows
}

// wellFormed reports whether body answers a fresh client's first
// request, of type want, exactly: tag 1, then either the success
// response's fields or an error response's, with no byte left over.
func wellFormed(body []byte, want uint64) bool {
	d := snap.NewDecoder(body)
	if d.Uint64() != 1 {
		return false
	}
	switch d.Uint64() {
	case msgErr:
		var e errResp
		e.decode(d)
	case want:
		if want == msgTenantStats {
			decodeStatsResp(d)
		} else {
			var r batchResp
			r.decode(d)
		}
	default:
		return false
	}
	return d.Done() == nil
}

// respondOnce returns a client over an in-memory pipe whose peer reads
// one request frame, answers it with body as the response frame, and
// hangs up; the peer is joined when the test ends.
func respondOnce(t *testing.T, body []byte) *Client {
	near, far := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer far.Close()
		if _, err := readFrame(bufio.NewReader(far), nil); err != nil {
			return
		}
		bw := bufio.NewWriter(far)
		if writeFrame(bw, body) == nil {
			bw.Flush()
		}
	}()
	t.Cleanup(func() { near.Close(); <-done })
	return NewClient(near)
}

// isRemote reports a typed server rejection, as opposed to a transport
// or protocol failure.
func isRemote(err error) bool {
	var re *RemoteError
	var bs *BadSeqError
	var ae *AdmissionError
	return errors.As(err, &re) || errors.As(err, &bs) || errors.As(err, &ae) ||
		errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrTenantExists)
}
