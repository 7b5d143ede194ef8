package main

import (
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {50, 80}}, 60},
		{"out of order", [][2]int64{{50, 80}, {10, 20}}, 60},
		{"overlapping", [][2]int64{{10, 40}, {30, 60}}, 50},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"sticking out of the parent", [][2]int64{{-50, 10}, {95, 200}}, 85},
		{"entirely outside", [][2]int64{{-50, -10}, {150, 200}}, 100},
		{"covering everything", [][2]int64{{-1, 101}}, 0},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// A submit span's conn children and self time must add up to its
// duration, so the ladder's rungs sum to the median they explain.
func TestMedianBreakdownAddsUp(t *testing.T) {
	r := newRecorder(0, time.Now())
	for i := 0; i < 101; i++ {
		base := int64(i) * 1000
		write, wait := int64(5+i%7), int64(20+i)
		r.spans = append(r.spans, span{name: spSubmit, start: base, end: base + 2 + write + wait + 1, parent: -1})
		p := int32(len(r.spans) - 1)
		r.spans = append(r.spans,
			span{name: spWrite, start: base + 2, end: base + 2 + write, parent: p},
			span{name: spWait, start: base + 2 + write, end: base + 2 + write + wait, parent: p})
	}
	// A wait that began at a write under the previous span counts only
	// inside its own parent.
	r.spans = append(r.spans, span{name: spBatch, start: 500_000, end: 500_010, parent: -1})
	r.spans = append(r.spans, span{name: spWait, start: 499_990, end: 500_008, parent: int32(len(r.spans) - 1)})

	st := collectSpans([]*recorder{r})
	self, kids := st.medianBreakdown(spSubmit)
	if self != 3 {
		t.Errorf("median self = %g, want 3", self)
	}
	durs := st.durations(spSubmit)
	lo, hi := rank(len(durs), 0.45)-1, rank(len(durs), 0.55)
	var mean float64
	for _, d := range durs[lo:hi] {
		mean += d
	}
	mean /= float64(hi - lo)
	if sum := self + kids[spWrite] + kids[spWait]; math.Abs(sum-mean) > 1e-9 {
		t.Errorf("self %g + write %g + wait %g = %g, want the band's mean duration %g", self, kids[spWrite], kids[spWait], sum, mean)
	}
	if got := st.blocked(spBatch); got != 8 {
		t.Errorf("batch blocked = %g ns, want the 8 inside the span", got)
	}
	if st.count != 3*101+2 {
		t.Errorf("count = %d spans, want %d", st.count, 3*101+2)
	}
}

// A nil or switched-off recorder records nothing; one that is on hands
// the open span's request id to its children.
func TestRecorderNilAndOff(t *testing.T) {
	var r *recorder
	if i := r.begin(spSubmit, 1, 2); i != -1 {
		t.Fatalf("nil recorder began span %d", i)
	}
	r.end(-1)
	r = newRecorder(0, time.Now())
	if i := r.begin(spSubmit, 1, 2); i != -1 || len(r.spans) != 0 {
		t.Fatalf("recorder that is off recorded %d spans", len(r.spans))
	}
	r.on = true
	i := r.begin(spSubmit, 3, 7)
	r.child(spWrite, 1, 2)
	r.end(i)
	if len(r.spans) != 2 || r.spans[1].parent != i || r.spans[1].tenant != 3 || r.spans[1].seq != 7 {
		t.Fatalf("spans = %+v, want a submit and its write child carrying tenant 3 seq 7", r.spans)
	}
}

// The timing conn times each Write, the wait from that Write to the
// reply, and any further Read, under the client span open at the time.
func TestTimingConnSpans(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(server, buf); err != nil {
			return
		}
		server.Write([]byte("pong")) // a failed write shows up as the client's read error
		server.Write([]byte("more"))
	}()
	r := newRecorder(0, time.Now())
	r.on = true
	c := &timingConn{Conn: client, rec: r}
	sp := r.begin(spSubmit, 0, 0)
	buf := make([]byte, 4)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
	r.end(sp)
	var names []string
	for _, s := range r.spans[1:] {
		if s.parent != sp {
			t.Errorf("%s has parent %d, want %d", spanNames[s.name], s.parent, sp)
		}
		names = append(names, spanNames[s.name])
	}
	if got := strings.Join(names, " "); got != "conn.write conn.wait conn.read" {
		t.Errorf("children = %q, want write, wait, read", got)
	}
	if r.bytesOut != 4 || r.bytesIn != 8 || r.writes != 1 || string(r.capture) != "ping" {
		t.Errorf("counters out %d in %d writes %d capture %q", r.bytesOut, r.bytesIn, r.writes, r.capture)
	}
}
