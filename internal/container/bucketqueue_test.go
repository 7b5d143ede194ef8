package container

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBucketQueueBasic(t *testing.T) {
	var q BucketQueue
	if !q.Empty() || q.Len() != 0 {
		t.Fatal("zero BucketQueue not empty")
	}
	if _, ok := q.EarliestDeadline(); ok {
		t.Fatal("EarliestDeadline on empty queue reported ok")
	}
	q.Add(5, 3)
	q.Add(5, 2) // merges into the same bucket
	q.Add(7, 1)
	if q.Len() != 6 {
		t.Fatalf("Len = %d, want 6", q.Len())
	}
	if dl, ok := q.EarliestDeadline(); !ok || dl != 5 {
		t.Fatalf("EarliestDeadline = (%d,%v), want (5,true)", dl, ok)
	}
	dl, ok := q.TakeEarliest()
	if !ok || dl != 5 {
		t.Fatalf("TakeEarliest = (%d,%v)", dl, ok)
	}
	if q.Len() != 5 {
		t.Fatalf("Len after take = %d", q.Len())
	}
}

func TestBucketQueueAddZeroOrNegative(t *testing.T) {
	var q BucketQueue
	q.Add(1, 0)
	q.Add(1, -5)
	if !q.Empty() {
		t.Fatal("zero/negative Add changed the queue")
	}
}

func TestBucketQueueNondecreasingPanic(t *testing.T) {
	var q BucketQueue
	q.Add(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with decreasing deadline did not panic")
		}
	}()
	q.Add(9, 1)
}

func TestBucketQueueExpire(t *testing.T) {
	var q BucketQueue
	q.Add(3, 2)
	q.Add(5, 4)
	q.Add(9, 1)
	if n := q.ExpireThrough(2); n != 0 {
		t.Fatalf("ExpireThrough(2) dropped %d, want 0", n)
	}
	if n := q.ExpireThrough(5); n != 6 {
		t.Fatalf("ExpireThrough(5) dropped %d, want 6", n)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after expiry, want 1", q.Len())
	}
	if dl, _ := q.EarliestDeadline(); dl != 9 {
		t.Fatalf("EarliestDeadline = %d, want 9", dl)
	}
	// Idempotent.
	if n := q.ExpireThrough(5); n != 0 {
		t.Fatalf("repeated ExpireThrough dropped %d", n)
	}
}

func TestBucketQueueTakeDrainsBuckets(t *testing.T) {
	var q BucketQueue
	q.Add(1, 1)
	q.Add(2, 1)
	if dl, _ := q.TakeEarliest(); dl != 1 {
		t.Fatal("first take should return deadline 1")
	}
	if dl, _ := q.TakeEarliest(); dl != 2 {
		t.Fatal("second take should return deadline 2")
	}
	if _, ok := q.TakeEarliest(); ok {
		t.Fatal("take on empty queue reported ok")
	}
}

func TestBucketQueueClearAndBuckets(t *testing.T) {
	var q BucketQueue
	q.Add(1, 2)
	q.Add(4, 3)
	bs := q.Buckets(nil)
	if len(bs) != 2 || bs[0] != (Bucket{1, 2}) || bs[1] != (Bucket{4, 3}) {
		t.Fatalf("Buckets = %v", bs)
	}
	for !q.Empty() {
		q.TakeEarliest()
	}
	q.Add(0, 1) // usable once emptied, even with a smaller deadline
	if bs := q.Buckets(nil); q.Len() != 1 || len(bs) != 1 || bs[0] != (Bucket{0, 1}) {
		t.Fatalf("after emptying and adding (0, 1): Len %d, Buckets %v", q.Len(), bs)
	}
}

// TestBucketQueueAgainstModel exercises the ring buffer growth and
// wrap-around against a naive slice model.
func TestBucketQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q BucketQueue
	var model []Bucket // sorted by deadline, merged
	deadline := 0
	modelLen := func() int {
		n := 0
		for _, b := range model {
			n += b.Count
		}
		return n
	}
	for step := 0; step < 3000; step++ {
		switch rng.Intn(3) {
		case 0: // add
			deadline += rng.Intn(3)
			cnt := 1 + rng.Intn(4)
			q.Add(deadline, cnt)
			if n := len(model); n > 0 && model[n-1].Deadline == deadline {
				model[n-1].Count += cnt
			} else {
				model = append(model, Bucket{deadline, cnt})
			}
		case 1: // take
			gdl, gok := q.TakeEarliest()
			if gok != (len(model) > 0) {
				t.Fatalf("step %d: take ok mismatch", step)
			}
			if gok {
				if gdl != model[0].Deadline {
					t.Fatalf("step %d: take deadline %d, model %d", step, gdl, model[0].Deadline)
				}
				model[0].Count--
				if model[0].Count == 0 {
					model = model[1:]
				}
			}
		case 2: // expire
			r := deadline - rng.Intn(4)
			got := q.ExpireThrough(r)
			want := 0
			for len(model) > 0 && model[0].Deadline <= r {
				want += model[0].Count
				model = model[1:]
			}
			if got != want {
				t.Fatalf("step %d: expire dropped %d, model %d", step, got, want)
			}
		}
		if q.Len() != modelLen() {
			t.Fatalf("step %d: Len %d, model %d", step, q.Len(), modelLen())
		}
	}
}

// Property: total jobs added equals jobs taken plus jobs expired plus jobs
// remaining, for any sequence of nonnegative deadline increments.
func TestBucketQueueConservationProperty(t *testing.T) {
	f := func(incs []uint8, counts []uint8) bool {
		var q BucketQueue
		deadline, added := 0, 0
		for i := range incs {
			deadline += int(incs[i] % 4)
			c := 1
			if len(counts) > 0 {
				c = int(counts[i%len(counts)]%5) + 1
			}
			q.Add(deadline, c)
			added += c
		}
		taken := 0
		for i := 0; i < added/2; i++ {
			if _, ok := q.TakeEarliest(); ok {
				taken++
			}
		}
		expired := q.ExpireThrough(deadline + 100)
		return added == taken+expired && q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
