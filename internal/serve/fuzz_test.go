package serve

import (
	"bufio"
	"bytes"
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
	// Seed with a valid encoding of every message type, so mutations
	// explore each handler's decode path, not just the type switch.
	seed := func(build func(e *snap.Encoder)) {
		e := snap.NewEncoder()
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
	seed(func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: "fuzz", Config: fuzzConfig}).encode(e, msgOpen)
	})
	seed(func(e *snap.Encoder) { // a strict submit: a batch of one
		(&batchMsg{Tenant: "fuzz", Seq: 0, Ticks: []sched.Request{
			{{Color: 0, Count: 2}, {Color: 1, Count: 1}}}}).encode(e)
	})
	seed(func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: ""}).encode(e) })
	seed(func(e *snap.Encoder) { (&tenantMsg{Type: msgResult, Tenant: "fuzz"}).encode(e) })
	seed(func(e *snap.Encoder) { (&tenantMsg{Type: msgDrain, Tenant: "fuzz"}).encode(e) })
	seed(func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: "fuzz"}).encode(e) })
	seed(func(e *snap.Encoder) { (&tenantMsg{Type: msgCloseTenant, Tenant: "nope"}).encode(e) })
	seed(func(e *snap.Encoder) { e.Uint64(msgPing) })
	seed(func(e *snap.Encoder) { (&errResp{Code: codeBadSeq, Expected: 3, Msg: "x"}).encode(e) })
	// Tagged envelopes around submits.
	seed(func(e *snap.Encoder) {
		e.Uint64(msgTagged)
		e.Uint64(7)
		(&batchMsg{Tenant: "fuzz", Seq: 0, Ticks: []sched.Request{{{Color: 0, Count: 2}}}}).encode(e)
	})
	// The migration pair.
	seed(func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: "fuzz2", Config: fuzzConfig, Blob: []byte{1, 2, 3}}).encode(e, msgRestore)
	})
	seed(func(e *snap.Encoder) { (&tenantMsg{Type: msgRelease, Tenant: "fuzz"}).encode(e) })
	seed(func(e *snap.Encoder) {
		e.Uint64(msgTagged)
		e.Uint64(9)
		e.Uint64(msgPing)
	})
	seed(func(e *snap.Encoder) {
		(&batchMsg{Tenant: "fuzz", Seq: 0, Ticks: []sched.Request{
			{{Color: 0, Count: 1}}, nil, {{Color: 1, Count: 2}, {Color: 0, Count: 1}},
		}}).encode(e)
	})
	seed(func(e *snap.Encoder) {
		e.Uint64(msgTagged)
		e.Uint64(1)
		(&batchMsg{Tenant: "fuzz", Seq: 3, Ticks: []sched.Request{{{Color: 1, Count: 1}}}}).encode(e)
	})
	// Nested tagged envelope — must be rejected, not recursed into.
	seed(func(e *snap.Encoder) {
		e.Uint64(msgTagged)
		e.Uint64(2)
		e.Uint64(msgTagged)
		e.Uint64(3)
		e.Uint64(msgPing)
	})
	// A reserved open and restore, and the durability-stats request.
	seed(func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: "fuzz3", Config: reserved}).encode(e, msgOpen)
	})
	seed(func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion, Tenant: "fuzz4", Config: reserved, Blob: []byte{1, 2, 3}}).encode(e, msgRestore)
	})
	seed(func(e *snap.Encoder) { e.Uint64(msgDuraStats) })
	// A batch claiming far more rounds than it carries — the decoder must
	// bound allocation by MaxBatch and reject, never trust the count.
	seed(func(e *snap.Encoder) {
		e.Uint64(msgSubmitBatch)
		e.String("fuzz")
		e.Int(0)
		e.Int(1 << 40)
	})
	// An open at another protocol version, and a type past the last one.
	seed(func(e *snap.Encoder) {
		(&openMsg{Version: ProtocolVersion - 1, Tenant: "fuzz5", Config: fuzzConfig}).encode(e, msgOpen)
	})
	seed(func(e *snap.Encoder) { e.Uint64(msgDuraStats + 1) })
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

func processBody(t *testing.T, s *Server, body []byte) {
	t.Helper()
	var cs connState
	enc := snap.NewEncoder()
	before, hadTenant := 0, false
	if ft := s.tenant("fuzz"); ft != nil {
		before, hadTenant = ft.nextSeq(), true
	}
	closeConn := s.process(body, &cs, enc)
	// Whatever happened, the server must have staged a response frame
	// that fits the protocol (process always encodes either a success
	// or an error response).
	if len(enc.Bytes()) == 0 {
		t.Fatalf("process staged no response for body %x", body)
	}
	d := snap.NewDecoder(enc.Bytes())
	if d.Uint64(); d.Err() != nil {
		t.Fatalf("response has no message type for body %x", body)
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
	// A mutated close frame can legitimately remove the fuzz tenant, and
	// a release frame can tombstone it; restore it so later inputs still
	// reach the tenant-addressed handlers.
	if ft := s.tenant("fuzz"); ft == nil || ft.isReleased() {
		if ft != nil {
			s.mu.Lock()
			delete(s.tenants, "fuzz")
			s.sorted = nil
			s.mu.Unlock()
		}
		s.open(&openMsg{Version: ProtocolVersion, Tenant: "fuzz", Config: fuzzConfig})
	}
}
