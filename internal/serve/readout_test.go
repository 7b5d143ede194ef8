package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"

	"repro/internal/snap"
)

// statsRequest encodes a stats request frame body under tag for id (""
// asks for every tenant).
func statsRequest(tag uint64, id string) []byte {
	e := snap.NewEncoder()
	e.Uint64(tag)
	(&tenantMsg{Type: msgTenantStats, Tenant: id}).encode(e)
	return e.Bytes()
}

// referenceRows builds the stats rows of id ("" for every live tenant)
// as plain values: each tenant's row, its ServiceShare set against the
// served total of every live tenant.
func referenceRows(s *Server, id string) []TenantStats {
	ts := s.tenantList()
	if id != "" {
		ts = []*tenant{s.tenant(id)}
	}
	var rows []TenantStats
	for _, t := range ts {
		rows = append(rows, t.stats())
	}
	var total float64
	for _, t := range s.tenantList() {
		total += float64(t.servedRounds())
	}
	if total > 0 {
		for i := range rows {
			rows[i].ServiceShare = float64(rows[i].ServedRounds) / total
		}
	}
	return rows
}

// TestStatsReadOutWire pins the bytes of the stats response the server
// encodes row by row, shares patched in place, to encodeStatsResp over
// the same rows built as plain values: all-tenant and single-tenant, on
// a BDR server where one tenant holds a reservation and one has been
// closed, over tenants that take no further submits. A repeat request
// on the same connection state answers the same bytes.
func TestStatsReadOutWire(t *testing.T) {
	s := startServer(t, Config{BDR: true})
	c := dialTest(t, s)
	for i, id := range []string{"a", "b", "c", "d"} {
		inst := testInstance(t, 8*(i+1), i)
		tc := tcFor(inst)
		if id == "a" {
			tc.ResRate, tc.ResDelay = 0.25, 32
		}
		if _, _, err := c.Open(id, tc); err != nil {
			t.Fatal(err)
		}
		feed(t, c, id, inst, 0)
		if _, err := c.DrainTenant(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CloseTenant("c"); err != nil {
		t.Fatal(err)
	}

	all := referenceRows(s, "")
	if len(all) != 3 || all[0].ID != "a" || all[0].ReservedRate != 0.25 || all[2].ID != "d" {
		t.Fatalf("live rows = %+v, want a (reserved), b and d", all)
	}
	if all[1].ServiceShare <= 0 || all[1].ServiceShare == all[2].ServiceShare {
		t.Fatalf("shares %v and %v pin nothing", all[1].ServiceShare, all[2].ServiceShare)
	}
	for _, id := range []string{"", "b", "a"} {
		want := snap.NewEncoder()
		want.Uint64(9)
		st := s.DuraStats()
		encodeStatsResp(want, referenceRows(s, id), &st)
		var cs connState
		got := snap.NewEncoder()
		for pass := 0; pass < 2; pass++ {
			got.Reset()
			if s.process(statsRequest(9, id), &cs, got) {
				t.Fatalf("stats %q closed the connection", id)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("stats %q pass %d: response\n%x\nwant encodeStatsResp's\n%x", id, pass, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestStatsReadOutAllocFree pins the stats read-out at zero allocations
// on the server and at a per-read-out constant on the client, with 64
// tenants: Server.process encodes an all-tenant and a single-tenant
// response straight from the tenants into the connection's encoder, and
// a client decoding a repeat response shares every ID and policy string
// with the previous one, so only its rows slice is new — as many
// allocations for 64 rows as for one.
func TestStatsReadOutAllocFree(t *testing.T) {
	const tenants = 64
	s := startServer(t, Config{})
	c := dialTest(t, s)
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("tenant-%02d", i)
		inst := testInstance(t, 4, i)
		if _, _, err := c.Open(id, tcFor(inst)); err != nil {
			t.Fatal(err)
		}
		feed(t, c, id, inst, 0)
		if _, err := c.DrainTenant(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"", "tenant-07"} {
		body := statsRequest(1, id)
		var cs connState
		enc := snap.NewEncoder()
		process := func() {
			enc.Reset()
			if s.process(body, &cs, enc) {
				t.Fatalf("stats %q closed the connection", id)
			}
		}
		process() // warm: the encoder and the share placeholders grow once
		if allocs := testing.AllocsPerRun(100, process); allocs != 0 {
			t.Fatalf("Server.process on stats %q allocates %.1f times per request", id, allocs)
		}
	}

	rows := referenceRows(s, "")
	readOut := func(n int) float64 {
		body := snap.NewEncoder()
		encodeStatsResp(body, rows[:n], &DuraStats{})
		cl := repeatPeer(t, body.Bytes())
		for warm := 0; warm < 2; warm++ { // the second caches the first's strings
			if got, err := cl.Stats(""); err != nil || len(got) != n {
				t.Fatalf("%d-row read-out = (%d rows, %v)", n, len(got), err)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := cl.Stats(""); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := readOut(1), readOut(tenants)
	if many > one || many > 1 {
		t.Fatalf("a repeat read-out allocates %.1f times for %d rows and %.1f for one; want the rows slice alone", many, tenants, one)
	}
}

// repeatPeer returns a client over an in-memory pipe whose peer answers
// every request with body (a response without its tag) under the
// request's own tag, allocating nothing per request; the peer is joined
// when the test ends.
func repeatPeer(t *testing.T, body []byte) *Client {
	near, far := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer far.Close()
		br, bw := bufio.NewReader(far), bufio.NewWriter(far)
		enc := snap.NewEncoder()
		var buf []byte
		for {
			var err error
			if buf, err = readFrame(br, buf); err != nil {
				return
			}
			enc.Reset()
			enc.Uint64(snap.NewDecoder(buf).Uint64())
			enc.Attach(append(enc.Bytes(), body...))
			if writeFrame(bw, enc.Bytes()) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	cl := NewClient(near)
	t.Cleanup(func() { cl.Close(); <-done })
	return cl
}
