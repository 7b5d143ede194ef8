package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"time"
)

// spanName indexes the fixed set of span names. Client spans wrap one
// call into the public serve API; conn spans are their children,
// recorded by the timing net.Conn the client was built on.
type spanName uint8

const (
	spOpen spanName = iota
	spSubmit
	spBatch
	spFlush
	spStats
	spPoll // a stats call waiting for queues to empty, kept apart from the stats reader
	spDrain
	spDuraStats
	spWrite // conn.Write
	spWait  // from the end of a Write to the return of the next Read: server plus loopback
	spRead  // any later Read
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.open", "client.submit", "client.batch", "client.flush", "client.stats",
	"client.poll", "client.drain", "client.durastats", "conn.write", "conn.wait", "conn.read",
}

// span is one timed interval. Times are nanoseconds since the run's
// epoch; parent indexes the same recorder's spans (-1 for none); tenant
// and seq identify the request.
type span struct {
	start, end int64
	seq        int64
	parent     int32
	tenant     int16
	name       spanName
}

// maxCapture bounds the request bytes a recorder keeps for the routing
// replay (proxy.route_ns).
const maxCapture = 1 << 20

// recorder collects the spans of one connection. Each connection is
// driven by exactly one goroutine, so a recorder needs no lock. A nil
// recorder records nothing, which is how untraced runs call it.
type recorder struct {
	conn  int // connection index, for trace.json
	epoch time.Time
	on    bool
	spans []span
	cur   int32 // the open client span, -1 for none

	// Wire counters, kept while on.
	bytesOut, bytesIn, writes int64
	capture                   []byte
}

func newRecorder(conn int, epoch time.Time) *recorder {
	return &recorder{conn: conn, epoch: epoch, cur: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a client span and makes it the parent of the conn spans
// that follow, returning its index (-1 when not recording).
func (r *recorder) begin(n spanName, tenant, seq int) int32 {
	if r == nil || !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: n, start: r.now(), parent: -1, tenant: int16(tenant), seq: int64(seq)})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = r.now()
	r.cur = -1
}

// child records a conn span under the open client span.
func (r *recorder) child(n spanName, start, end int64) {
	sp := span{name: n, start: start, end: end, parent: r.cur, tenant: -1, seq: -1}
	if r.cur >= 0 {
		sp.tenant, sp.seq = r.spans[r.cur].tenant, r.spans[r.cur].seq
	}
	r.spans = append(r.spans, sp)
}

// timingConn is the net.Conn a traced client is built on: it times each
// Write and Read and counts the bytes, attributing them to the client
// span open at the time.
type timingConn struct {
	net.Conn
	rec       *recorder
	waiting   bool // a Write happened since the last Read
	lastWrite int64
}

func (c *timingConn) Write(b []byte) (int, error) {
	r := c.rec
	if !r.on {
		return c.Conn.Write(b)
	}
	t0 := r.now()
	n, err := c.Conn.Write(b)
	t1 := r.now()
	r.child(spWrite, t0, t1)
	r.bytesOut += int64(n)
	r.writes++
	if room := maxCapture - len(r.capture); room > 0 {
		r.capture = append(r.capture, b[:min(n, room)]...)
	}
	c.waiting, c.lastWrite = true, t1
	return n, err
}

func (c *timingConn) Read(b []byte) (int, error) {
	r := c.rec
	if !r.on {
		return c.Conn.Read(b)
	}
	t0 := r.now()
	n, err := c.Conn.Read(b)
	t1 := r.now()
	if c.waiting {
		r.child(spWait, c.lastWrite, t1)
		c.waiting = false
	} else {
		r.child(spRead, t0, t1)
	}
	r.bytesIn += int64(n)
	return n, err
}

// selfTime returns the part of [start, end) that no child interval
// covers. Children may overlap each other or stick out of the parent.
func selfTime(start, end int64, children [][2]int64) int64 {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered := int64(0)
	cur := start // everything before cur is accounted for
	for _, c := range cs {
		lo, hi := max(c[0], cur), min(c[1], end)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return end - start - covered
}

// clientSpan is one client span's breakdown, in ns: its duration, its
// self time, and the time its conn spans of each kind spent inside it.
type clientSpan struct {
	dur, self float64
	kids      [numSpanNames]float64
}

// spanStats groups one run's client spans by kind, each list sorted by
// duration.
type spanStats struct {
	client [numSpanNames][]clientSpan
	count  int
}

func collectSpans(recs []*recorder) *spanStats {
	st := &spanStats{}
	for _, r := range recs {
		st.count += len(r.spans)
		kids := make(map[int32][]int32)
		for i, sp := range r.spans {
			if sp.parent >= 0 {
				kids[sp.parent] = append(kids[sp.parent], int32(i))
			}
		}
		for i, sp := range r.spans {
			if sp.parent >= 0 {
				continue
			}
			cs := clientSpan{dur: float64(sp.end - sp.start)}
			var ivs [][2]int64
			for _, k := range kids[int32(i)] {
				c := r.spans[k]
				ivs = append(ivs, [2]int64{c.start, c.end})
				// Only the part inside the parent counts: a wait can begin
				// at a write made under an earlier span.
				cs.kids[c.name] += float64(max(min(c.end, sp.end)-max(c.start, sp.start), 0))
			}
			cs.self = float64(selfTime(sp.start, sp.end, ivs))
			st.client[sp.name] = append(st.client[sp.name], cs)
		}
	}
	for i := range st.client {
		slices.SortFunc(st.client[i], func(a, b clientSpan) int { return cmp.Compare(a.dur, b.dur) })
	}
	return st
}

// durations returns the sorted durations of client spans of kind n.
func (st *spanStats) durations(n spanName) []float64 {
	out := make([]float64, len(st.client[n]))
	for i, cs := range st.client[n] {
		out[i] = cs.dur
	}
	return out
}

// medianBreakdown decomposes the median span of kind n: over the spans
// whose duration lies between the 45th and 55th percentiles, the mean
// self time and the mean time in each kind of conn span. The parts add
// up to those spans' mean duration, so the rungs of the ladder sum to
// the median they explain.
func (st *spanStats) medianBreakdown(n spanName) (self float64, kids [numSpanNames]float64) {
	all := st.client[n]
	if len(all) == 0 {
		return 0, kids
	}
	lo, hi := rank(len(all), 0.45)-1, rank(len(all), 0.55)
	band := all[lo:hi]
	for _, cs := range band {
		self += cs.self
		for k := range kids {
			kids[k] += cs.kids[k]
		}
	}
	for k := range kids {
		kids[k] /= float64(len(band))
	}
	return self / float64(len(band)), kids
}

// blocked is the total time spans of kind n spent in conn reads, waiting
// for responses.
func (st *spanStats) blocked(n spanName) float64 {
	var total float64
	for _, cs := range st.client[n] {
		total += cs.kids[spWait] + cs.kids[spRead]
	}
	return total
}

// maxTraceSpans bounds trace.json; the per-layer numbers use every span.
const maxTraceSpans = 200_000

// writeTrace writes the recorders' spans, earliest first, to path. A
// span is identified by (conn, id); parent is an id on the same conn.
func writeTrace(path, workload string, recs []*recorder) error {
	type out struct {
		Name   string `json:"name"`
		Conn   int    `json:"conn"`
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Tenant int16  `json:"tenant"`
		Seq    int64  `json:"seq"`
	}
	var all []out
	total := 0
	for _, r := range recs {
		total += len(r.spans)
		for i, sp := range r.spans {
			all = append(all, out{spanNames[sp.name], r.conn, i, sp.parent, sp.start, sp.end, sp.tenant, sp.seq})
		}
	}
	slices.SortStableFunc(all, func(a, b out) int { return cmp.Compare(a.Start, b.Start) })
	all = all[:min(len(all), maxTraceSpans)]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans_total\":%d,\"spans_written\":%d,\"spans\":[\n", workload, total, len(all))
	for i := range all {
		b, _ := json.Marshal(all[i]) // a struct of strings and ints cannot fail
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
