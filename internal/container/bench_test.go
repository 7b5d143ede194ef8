package container

import "testing"

func BenchmarkIndexedHeapPushPop(b *testing.B) {
	h := NewIndexedHeap[int, int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Push(i%1024, (i*2654435761)%100000)
		if h.Len() > 512 {
			h.Pop()
		}
	}
}

func BenchmarkIndexedHeapUpdate(b *testing.B) {
	h := NewIndexedHeap[int, int](1024)
	for i := 0; i < 1024; i++ {
		h.Push(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(i%1024, (i*31)%100000)
	}
}

func BenchmarkBucketQueueCycle(b *testing.B) {
	var q BucketQueue
	b.ReportAllocs()
	deadline := 0
	for i := 0; i < b.N; i++ {
		deadline++
		q.Add(deadline, 4)
		q.TakeEarliest()
		q.TakeEarliest()
		q.ExpireThrough(deadline - 8)
	}
}

func BenchmarkRNGPoisson(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Poisson(3.5)
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := NewRNG(2)
	z := NewZipf(r, 1024, 1.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
