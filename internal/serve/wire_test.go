package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/snap"
)

func TestFrameRoundTrip(t *testing.T) {
	// Buffers smaller than most frames make headers straddle flushes and
	// refills, the paths a roomy buffer never takes.
	var conn bytes.Buffer
	bw := bufio.NewWriterSize(&conn, 16)
	bodies := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{7}, 1000), []byte("abc"), bytes.Repeat([]byte{9}, 13)}
	for _, b := range bodies {
		if err := writeFrame(bw, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(&conn, 16)
	var scratch []byte
	for _, want := range bodies {
		got, err := readFrame(br, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %q, want %q", got, want)
		}
		scratch = got
	}
	if _, err := readFrame(br, scratch); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

// TestFrameIONoAlloc pins the framing layer at zero allocations per
// frame: the length header is appended into the bufio.Writer's buffer
// and peeked out of the bufio.Reader's, so neither escapes to the heap
// on the client, the server, or a proxy relay.
func TestFrameIONoAlloc(t *testing.T) {
	var conn bytes.Buffer
	bw := bufio.NewWriter(&conn)
	br := bufio.NewReader(&conn)
	body := bytes.Repeat([]byte{7}, 100)
	var buf []byte
	roundTrip := func() {
		if err := writeFrame(bw, body); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(br, buf)
		if err != nil || len(got) != len(body) {
			t.Fatalf("readFrame = (%d bytes, %v)", len(got), err)
		}
		buf = got
	}
	roundTrip() // warm: grows buf once
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("writing and reading one frame allocates %.1f times", allocs)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if err := writeFrame(bufio.NewWriter(io.Discard), make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("writeFrame accepted an oversized body")
	}
	hdr := []byte{0xff, 0xff, 0xff, 0xff} // length 2^32-1
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)), nil); err == nil {
		t.Fatal("readFrame accepted an oversized length prefix")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		// Only an empty stream is a clean end: any cut is a truncation.
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(full[:cut])), nil); err == nil || err == io.EOF {
			t.Fatalf("truncation at %d = %v, want a truncation error", cut, err)
		}
	}
}

// codecCase is one TestWireCodecRoundTrip entry: a value, its message
// type, and how to encode it (tag first) and decode it back.
type codecCase struct {
	name string
	typ  uint64
	in   any
	enc  func(*snap.Encoder)
	dec  func(*snap.Decoder) any
}

// TestWireCodecRoundTrip encodes and decodes every request and response
// type of the protocol in its tag | type | fields layout — including
// zero-valued weights, reservations, blobs and backend rows, which a
// fixed-layout frame carries like any other value — and requires the
// decoder to consume each frame exactly and return what was encoded.
// The largest tag a client issues must cost at most two bytes.
func TestWireCodecRoundTrip(t *testing.T) {
	const tag = tagSpace - 1
	if n := len(binary.AppendUvarint(nil, tag)); n > 2 {
		t.Fatalf("tag %d costs %d bytes, want at most 2", uint64(tag), n)
	}
	cfg := TenantConfig{Policy: "edf", N: 4, Speed: 2, Delta: 3, Delays: []int{2, 6},
		QueueCap: 32, Weight: 5, ResRate: 0.25, ResDelay: 16}
	row := TenantStats{ID: "a", Policy: "ΔLRU-EDF", Round: 9, NextSeq: 11, Pending: 3, QueueDepth: 2,
		QueueCap: 64, Executed: 100, Dropped: 4, Reconfigs: 7, CostReconfig: 28,
		CostDrop: 4, MaxPending: 12, Overloads: 1, BadSeqs: 2, Checkpoints: 3,
		Weight: 2, MinDelay: 4, ServedRounds: 70, DelayFactor: 0.5,
		MaxDelayFactor: 2.25, ServiceShare: 0.125,
		ReservedRate: 0.25, ReservedDelay: 32, BudgetUtilization: 1.5}
	counters := DuraStats{Appends: 6, Bytes: 600, Fsyncs: 2, Rotations: 1, Compactions: 1, Segments: 1}
	res := &sched.Result{Policy: "EDF", Cost: sched.Cost{Reconfig: 12, Drop: 5},
		Executed: 40, Dropped: 5, Reconfigs: 3, Rounds: 17,
		DropsByColor: []int{1, 4}, ExecByColor: []int{20, 20}}
	openCase := func(name string, m openMsg) codecCase {
		return codecCase{name, msgOpen, m,
			func(e *snap.Encoder) { e.Uint64(tag); m.encode(e) },
			func(d *snap.Decoder) any { var out openMsg; out.decode(d); return out }}
	}
	openRespCase := func(name string, m openResp) codecCase {
		return codecCase{name, msgOpen, m,
			func(e *snap.Encoder) { e.Uint64(tag); m.encode(e) },
			func(d *snap.Decoder) any { var out openResp; out.decode(d); return out }}
	}
	batchCase := func(name string, m batchMsg) codecCase {
		return codecCase{name, msgSubmitBatch, m,
			func(e *snap.Encoder) { e.Uint64(tag); m.encode(e) },
			func(d *snap.Decoder) any { var out batchMsg; out.decode(d); return out }}
	}
	batchRespCase := func(name string, m batchResp) codecCase {
		return codecCase{name, msgSubmitBatch, m,
			func(e *snap.Encoder) { e.Uint64(tag); m.encode(e) },
			func(d *snap.Decoder) any { var out batchResp; out.decode(d); return out }}
	}
	tenantCase := func(name string, m tenantMsg) codecCase {
		return codecCase{name, m.Type, m,
			func(e *snap.Encoder) { e.Uint64(tag); m.encode(e) },
			func(d *snap.Decoder) any { out := tenantMsg{Type: m.Type}; out.decode(d); return out }}
	}
	type readOut struct {
		Rows []TenantStats
		Dura DuraStats
	}
	statsCase := func(name string, rows []TenantStats, st DuraStats) codecCase {
		return codecCase{name, msgTenantStats, readOut{rows, st},
			func(e *snap.Encoder) { e.Uint64(tag); encodeStatsResp(e, rows, &st) },
			func(d *snap.Decoder) any { var out readOut; out.Rows, out.Dura = decodeStatsResp(d); return out }}
	}
	resultCase := func(name string, typ uint64) codecCase {
		return codecCase{name, typ, res,
			func(e *snap.Encoder) { e.Uint64(tag); encodeResult(e, typ, res) },
			func(d *snap.Decoder) any { return decodeResult(d) }}
	}
	errCase := func(name string, m errResp) codecCase {
		return codecCase{name, msgErr, m,
			func(e *snap.Encoder) { e.Uint64(tag); m.encode(e) },
			func(d *snap.Decoder) any { var out errResp; out.decode(d); return out }}
	}
	zero := TenantConfig{Policy: "edf"} // weight, reservation, delays all zero

	cases := []codecCase{
		openCase("open", openMsg{Version: ProtocolVersion, Tenant: "t1", Config: cfg}),
		openCase("open-zero", openMsg{Version: ProtocolVersion, Tenant: "t0", Config: zero}),
		openRespCase("open-response", openResp{NextSeq: 7, Resumed: true}),
		batchCase("submit-batch", batchMsg{Tenant: "t1", Seq: 42, Ticks: []sched.Request{
			{{Color: 3, Count: 7}, {Color: 0, Count: 1}}, nil, {{Color: 5, Count: 2}}}}),
		// The frame Client.Submit sends: a batch of one.
		batchCase("submit-batch-of-one", batchMsg{Tenant: "t1", Seq: 43, Ticks: []sched.Request{{{Color: 1, Count: 1}}}}),
		batchRespCase("submit-batch-response", batchResp{Admitted: 16, Round: 99, QueueDepth: 3}),
		batchRespCase("submit-batch-response-rejected", batchResp{Admitted: 4, Round: 7, QueueDepth: 4,
			Err: &errResp{Code: codeBadSeq, Expected: 11, Msg: "bad round sequence"}}),
		tenantCase("stats-all", tenantMsg{Type: msgTenantStats, Tenant: ""}),
		tenantCase("stats-one", tenantMsg{Type: msgTenantStats, Tenant: "a"}),
		// A server's own answer: its rows and its log counters; an empty
		// server with durability off; a proxy's answer, the counters
		// summed over two backend rows, one of them memory-only; a
		// durable server with no tenants; and tenants with durability off.
		statsCase("stats-response", []TenantStats{row, {ID: "b"}}, counters),
		statsCase("stats-response-empty", nil, DuraStats{}),
		statsCase("dura-stats-response", []TenantStats{row}, DuraStats{Appends: 6, Bytes: 600, Fsyncs: 2,
			Rotations: 1, Compactions: 1, Segments: 1, Backends: []BackendDuraStats{
				{Addr: "127.0.0.1:1", DuraStats: counters}, {Addr: "127.0.0.1:2"}}}),
		statsCase("dura-stats-response-no-backends", nil, counters),
		statsCase("dura-stats-response-zero", []TenantStats{{ID: "b"}}, DuraStats{}),
		tenantCase("drain", tenantMsg{Type: msgDrain, Tenant: "a"}),
		resultCase("drain-response", msgDrain),
		tenantCase("close-tenant", tenantMsg{Type: msgCloseTenant, Tenant: "a"}),
		resultCase("close-tenant-response", msgCloseTenant),
		errCase("error-admission", errResp{Code: codeAdmission, Msg: "shard full", ResidualRate: 0.375, ResidualDelay: 2}),
		errCase("error-bad-seq", errResp{Code: codeBadSeq, Expected: 7, Msg: "bad seq"}),
		errCase("error-zero", errResp{}),
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := snap.NewEncoder()
			c.enc(e)
			d := snap.NewDecoder(e.Bytes())
			if got := d.Uint64(); got != tag {
				t.Fatalf("tag = %d, want %d", got, uint64(tag))
			}
			if typ := d.Uint64(); typ != c.typ {
				t.Fatalf("type = %d, want %d", typ, c.typ)
			}
			got := c.dec(d)
			if err := d.Done(); err != nil {
				t.Fatalf("decoding %+v: %v", c.in, err)
			}
			if !reflect.DeepEqual(got, c.in) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, c.in)
			}
		})
	}
}

func TestBatchMsgRoundTrip(t *testing.T) {
	e := snap.NewEncoder()
	in := batchMsg{
		Tenant: "t1", Seq: 42,
		Ticks: []sched.Request{
			{{Color: 3, Count: 7}, {Color: 0, Count: 1}},
			nil, // an empty round tick is a legal batch entry
			{{Color: 5, Count: 2}},
		},
	}
	in.encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgSubmitBatch {
		t.Fatalf("type = %d", typ)
	}
	var out batchMsg
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != in.Tenant || out.Seq != in.Seq || len(out.Ticks) != 3 {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Ticks {
		if len(out.Ticks[i]) != len(in.Ticks[i]) {
			t.Fatalf("tick %d = %+v, want %+v", i, out.Ticks[i], in.Ticks[i])
		}
		for j := range in.Ticks[i] {
			if out.Ticks[i][j] != in.Ticks[i][j] {
				t.Fatalf("tick %d = %+v, want %+v", i, out.Ticks[i], in.Ticks[i])
			}
		}
	}
	// A decoded batch reuses its backing arrays across frames; a second
	// decode with fewer ticks must not leak the first frame's tail.
	e.Reset()
	(&batchMsg{Tenant: "t1", Seq: 45, Ticks: []sched.Request{{{Color: 1, Count: 1}}}}).encode(e)
	d = snap.NewDecoder(e.Bytes())
	d.Uint64()
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(out.Ticks) != 1 || len(out.Ticks[0]) != 1 || out.Ticks[0][0] != (sched.Batch{Color: 1, Count: 1}) {
		t.Fatalf("reused decode: %+v", out.Ticks)
	}
}

func TestBatchMsgRejectsHostileCount(t *testing.T) {
	e := snap.NewEncoder()
	e.Uint64(msgSubmitBatch)
	e.String("t1")
	e.Int(0)
	e.Int(MaxBatch + 1) // claims more rounds than any frame may carry
	d := snap.NewDecoder(e.Bytes())
	d.Uint64()
	var out batchMsg
	out.decode(d)
	if d.Err() == nil {
		t.Fatal("decode accepted a batch count past MaxBatch")
	}
}

func TestBatchRespRoundTrip(t *testing.T) {
	for _, in := range []batchResp{
		{Admitted: 16, Round: 99, QueueDepth: 3},
		{Admitted: 4, Round: 7, QueueDepth: 4, Err: &errResp{Code: codeBadSeq, Expected: 11, Msg: "bad round sequence"}},
	} {
		e := snap.NewEncoder()
		in.encode(e)
		d := snap.NewDecoder(e.Bytes())
		if typ := d.Uint64(); typ != msgSubmitBatch {
			t.Fatalf("type = %d", typ)
		}
		var out batchResp
		out.decode(d)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if out.Admitted != in.Admitted || out.Round != in.Round || out.QueueDepth != in.QueueDepth {
			t.Fatalf("round trip: %+v, want %+v", out, in)
		}
		if (out.Err == nil) != (in.Err == nil) {
			t.Fatalf("round trip err: %+v, want %+v", out.Err, in.Err)
		}
		if in.Err != nil && *out.Err != *in.Err {
			t.Fatalf("round trip err: %+v, want %+v", *out.Err, *in.Err)
		}
	}
}

// decodeStatsResp decodes a stats response the way a fresh client's
// first read-out does, with nothing cached.
func decodeStatsResp(d *snap.Decoder) ([]TenantStats, DuraStats) {
	var c statsCache
	return c.decode(d)
}

func TestStatsRespRoundTrip(t *testing.T) {
	rows := []TenantStats{
		{ID: "a", Policy: "ΔLRU-EDF", Round: 9, NextSeq: 11, Pending: 3, QueueDepth: 2,
			QueueCap: 64, Executed: 100, Dropped: 4, Reconfigs: 7, CostReconfig: 28,
			CostDrop: 4, MaxPending: 12, Overloads: 1, BadSeqs: 2, Checkpoints: 3},
		{ID: "b"},
	}
	e := snap.NewEncoder()
	encodeStatsResp(e, rows, &DuraStats{})
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgTenantStats {
		t.Fatalf("type = %d", typ)
	}
	got, st := decodeStatsResp(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != rows[0] || got[1] != rows[1] || !reflect.DeepEqual(st, DuraStats{}) {
		t.Fatalf("round trip: %+v, %+v", got, st)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &sched.Result{
		Policy: "EDF", Cost: sched.Cost{Reconfig: 12, Drop: 5},
		Executed: 40, Dropped: 5, Reconfigs: 3, Rounds: 17,
		DropsByColor: []int{1, 4}, ExecByColor: []int{20, 20},
	}
	e := snap.NewEncoder()
	encodeResult(e, msgDrain, in)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgDrain {
		t.Fatalf("type = %d", typ)
	}
	out := decodeResult(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(in, out) {
		t.Fatalf("round trip: %+v", out)
	}
}

// The steady-state ingest path must not allocate per frame: staging a
// submit the way Client.Submit does — a tag, then one tick sent as a
// batch of one — into a reused encoder, and decoding tag, type and
// batch into a reused batchMsg, both reach zero allocations, which is
// what keeps a tenant's submit loop allocation-free on client and
// server.
func TestSubmitCodecSteadyStateAllocs(t *testing.T) {
	e := snap.NewEncoder()
	req := sched.Request{{Color: 3, Count: 7}, {Color: 0, Count: 1}, {Color: 5, Count: 2}}
	var one [1]sched.Request
	msg := batchMsg{Tenant: "tenant-0", Seq: 0}
	var dec batchMsg
	var tag uint64
	roundTrip := func() {
		tag = (tag + 1) % tagSpace
		msg.Seq++
		one[0] = req
		msg.Ticks = one[:]
		e.Reset()
		e.Uint64(tag)
		msg.encode(e)
		one[0] = nil
		d := snap.NewDecoder(e.Bytes())
		if got, typ := d.Uint64(), d.Uint64(); got != tag || typ != msgSubmitBatch {
			t.Fatalf("decoded tag %d type %d, want %d and %d", got, typ, tag, uint64(msgSubmitBatch))
		}
		dec.decode(d)
		if d.Err() != nil || len(dec.Ticks) != 1 || len(dec.Ticks[0]) != len(req) {
			t.Fatalf("decoded %+v (%v)", dec, d.Err())
		}
	}
	roundTrip() // warm: the decoder grows its tick buffers once
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("submit encode+decode allocates %.1f per frame", allocs)
	}
}

// TestErrRespAdmissionRoundTrip: an admission rejection carries the
// shard's residual capacity through to the client's typed error.
func TestErrRespAdmissionRoundTrip(t *testing.T) {
	in := errResp{Code: codeAdmission, Msg: "shard full", ResidualRate: 0.375, ResidualDelay: 2}
	e := snap.NewEncoder()
	in.encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgErr {
		t.Fatalf("type = %d", typ)
	}
	var out errResp
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}
	var ae *AdmissionError
	if err := errFromResp(&out, 0); !errors.As(err, &ae) || ae.ResidualRate != 0.375 || ae.ResidualDelay != 2 {
		t.Fatalf("typed error = %v, want *AdmissionError with the residuals", err)
	}
}

// TestDuraStatsBackendsRoundTrip pins the proxy fan-out rows in the
// stats response's counter block: a response with per-backend rows
// round-trips them labelled, and a direct-dial response decodes with
// no rows.
func TestDuraStatsBackendsRoundTrip(t *testing.T) {
	in := DuraStats{Appends: 10, Bytes: 1000, Fsyncs: 3,
		Rotations: 1, Compactions: 1, Segments: 2,
		Backends: []BackendDuraStats{
			{Addr: "127.0.0.1:1", DuraStats: DuraStats{Appends: 6, Bytes: 600, Fsyncs: 2, Rotations: 1, Compactions: 1, Segments: 1}},
			{Addr: "127.0.0.1:2"},
		}}
	for _, want := range []DuraStats{in, {Appends: 4, Segments: 1}} {
		e := snap.NewEncoder()
		encodeStatsResp(e, nil, &want)
		d := snap.NewDecoder(e.Bytes())
		if typ := d.Uint64(); typ != msgTenantStats {
			t.Fatalf("type = %d", typ)
		}
		rows, out := decodeStatsResp(d)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 || !reflect.DeepEqual(out, want) {
			t.Fatalf("round trip: %+v %+v, want %+v", rows, out, want)
		}
	}
}

// TestPeekRequest pins the proxy's view of each request type, built
// with the real encoders: the tag and the tenant come back, StatsAll
// marks only an all-tenant stats request, and Mutating marks exactly
// the frames a warm standby must replicate (open, submit-batch, drain,
// close). A frame the peek cannot classify is an error.
func TestPeekRequest(t *testing.T) {
	tc := TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}
	for _, tt := range []struct {
		name   string
		encode func(e *snap.Encoder)
		want   PeekInfo
	}{
		{"open", func(e *snap.Encoder) {
			(&openMsg{Version: ProtocolVersion, Tenant: "a", Config: tc}).encode(e)
		}, PeekInfo{Tenant: "a", Mutating: true}},
		{"submit-batch", func(e *snap.Encoder) {
			(&batchMsg{Tenant: "c", Seq: 4, Ticks: []sched.Request{{{Color: 1, Count: 2}}, nil}}).encode(e)
		}, PeekInfo{Tenant: "c", Mutating: true}},
		{"stats", func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats, Tenant: "d"}).encode(e) },
			PeekInfo{Tenant: "d"}},
		{"stats-all", func(e *snap.Encoder) { (&tenantMsg{Type: msgTenantStats}).encode(e) },
			PeekInfo{StatsAll: true}},
		{"drain", func(e *snap.Encoder) { (&tenantMsg{Type: msgDrain, Tenant: "e"}).encode(e) },
			PeekInfo{Tenant: "e", Mutating: true}},
		{"close", func(e *snap.Encoder) { (&tenantMsg{Type: msgCloseTenant, Tenant: "f"}).encode(e) },
			PeekInfo{Tenant: "f", Mutating: true}},
	} {
		for _, tag := range []uint64{1, tagSpace - 1} {
			e := snap.NewEncoder()
			e.Uint64(tag)
			tt.encode(e)
			got, err := PeekRequest(e.Bytes())
			want := tt.want
			want.Tag = tag
			if err != nil || got != want {
				t.Errorf("%s, tag %d: PeekRequest = %+v, %v; want %+v", tt.name, tag, got, err, want)
			}
		}
	}
	for _, body := range [][]byte{
		nil,                         // no tag
		{7},                         // a tag with no type
		{7, msgErr},                 // a response-only type
		{7, msgCloseTenant + 1},     // a type past the last one, restore up to protocol 10
		{7, msgCloseTenant + 2},     // release up to protocol 10
		{7, msgOpen, 2},             // an open cut before its tenant
		{7, msgSubmitBatch, 5, 'a'}, // a tenant ID cut short
	} {
		if info, err := PeekRequest(body); err == nil {
			t.Errorf("PeekRequest(%x) = %+v, want an error", body, info)
		}
	}
}
