package ckptlog

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkLogLiveState drives the log at its default options with live
// state around and past 4 × SegmentBytes: one 4 KiB record per tenant,
// then six round-robin passes of appends, at 2,048, 4,096 and 6,144
// tenants (about 8, 16 and 24 MiB of live records against 4 MiB
// segments). Each iteration runs the whole row on a fresh directory. It
// reports rotations and compactions per row, rotations per append, write
// amplification (framed bytes written, compaction copies included, over
// framed bytes appended), and the mean and worst Append latency; a
// rotation commits and compacts inside the Append that triggers it.
func BenchmarkLogLiveState(b *testing.B) {
	const blobBytes, passes = 4 << 10, 6
	blob := make([]byte, blobBytes)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	for _, tenants := range []int{2048, 4096, 6144} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			ids := make([]string, tenants)
			for i := range ids {
				ids[i] = fmt.Sprintf("t%05d", i)
			}
			var appends, appended, written, rotations, compactions int64
			var total, worst time.Duration
			for i := 0; i < b.N; i++ {
				l, err := Open(Options{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				for round := 0; round <= passes; round++ {
					// Every ID has the same length, so one frame size serves
					// the whole pass.
					framed := int64(len(frameRecord(KindFull, ids[0], round, blob)))
					for _, id := range ids {
						start := time.Now()
						if err := l.Append(id, KindFull, round, 0, blob); err != nil {
							b.Fatal(err)
						}
						d := time.Since(start)
						total += d
						worst = max(worst, d)
						appended += framed
					}
				}
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
				st := l.Stats()
				appends += st.Appends
				written += st.Bytes
				rotations += st.Rotations
				compactions += st.Compactions
			}
			n := float64(b.N)
			b.ReportMetric(float64(rotations)/n, "rotations/op")
			b.ReportMetric(float64(compactions)/n, "compactions/op")
			b.ReportMetric(float64(rotations)/float64(appends), "rotations/append")
			b.ReportMetric(float64(written)/float64(appended), "write-amp")
			b.ReportMetric(float64(total.Microseconds())/float64(appends), "append-mean-µs")
			b.ReportMetric(float64(worst.Microseconds())/1e3, "append-worst-ms")
		})
	}
}
