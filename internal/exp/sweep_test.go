package exp

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSweepDeterministicAcrossWorkers pins the sharded runner's central
// guarantee: a real scheduler sweep produces bit-identical results at
// every worker count, because results[i] depends only on items[i] and the
// per-instance seed is derived from the item. This is what makes numbers
// in EXPERIMENTS.md reproducible regardless of -workers.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	seeds := seedRange(42, 23) // deliberately not a multiple of any worker count
	run := func(workers int) []*sched.Result {
		t.Helper()
		results, err := Sweep(workers, seeds, func(seed uint64) (*sched.Result, error) {
			inst := workload.Router(seed, 4, 8, 256, 12)
			return sched.Run(inst, core.NewDLRUEDF(), sched.Options{N: 16})
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	want := run(1)
	for _, w := range []int{2, 3, 8, 23, 64} {
		got := run(w)
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("workers=%d: result[%d] diverged from workers=1:\n got %+v\nwant %+v",
					w, i, got[i], want[i])
			}
		}
	}
}

// TestSweepStealsSkewedWork drives the stealing path: all the expensive
// items land in the first shard, so with >1 worker the others must steal
// to finish. Every item must still be processed exactly once, in order.
func TestSweepStealsSkewedWork(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	var calls atomic.Int64
	got, err := Sweep(4, items, func(x int) (int, error) {
		calls.Add(1)
		if x < 16 { // the first shard is the slow one
			time.Sleep(time.Millisecond)
		}
		return x * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(items)) {
		t.Fatalf("fn ran %d times for %d items", calls.Load(), len(items))
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*2)
		}
	}
}

// TestSweepRunsEverythingDespiteError: an error does not cancel remaining
// items, and the error returned is the first in item order, not in
// completion order.
func TestSweepRunsEverythingDespiteError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var calls atomic.Int64
	_, err := Sweep(3, []int{0, 1, 2, 3, 4, 5}, func(x int) (int, error) {
		calls.Add(1)
		switch x {
		case 4:
			return 0, errB
		case 1:
			time.Sleep(2 * time.Millisecond) // finish after item 4's error
			return 0, errA
		}
		return x, nil
	})
	if calls.Load() != 6 {
		t.Fatalf("fn ran %d times, want 6", calls.Load())
	}
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want first-in-item-order error %v", err, errA)
	}
}

// TestSweepManyWorkersFewItems exercises the workers > items clamp with
// the sharded runner.
func TestSweepManyWorkersFewItems(t *testing.T) {
	got, err := Sweep(32, []int{1, 2, 3}, func(x int) (int, error) { return -x, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -1 || got[1] != -2 || got[2] != -3 {
		t.Fatalf("got %v", got)
	}
}

// BenchmarkSweep measures the sharded runner end to end: 16 independent
// ΔLRU-EDF simulations of a 256-round router trace each, at one worker
// (serial) and at GOMAXPROCS (parallel). The ratio of the two is the
// runner's scaling on the host; a single-core host reads ≈1.0.
func BenchmarkSweep(b *testing.B) {
	seeds := seedRange(900, 16)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := Sweep(bc.workers, seeds, func(seed uint64) (int64, error) {
					inst := workload.Router(seed, 4, 8, 256, 12)
					r, err := sched.Run(inst, core.NewDLRUEDF(), sched.Options{N: 16})
					if err != nil {
						return 0, err
					}
					return r.Cost.Total(), nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
