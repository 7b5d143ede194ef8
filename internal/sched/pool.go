package sched

import (
	"slices"

	"repro/internal/container"
)

// jobPool holds the pending jobs of every color during a run. Jobs are
// represented as (deadline, count) buckets per color; a min-heap over the
// per-color earliest deadlines makes the drop phase O(expired · log C)
// instead of O(C) per round.
type jobPool struct {
	queues []container.BucketQueue
	dl     *container.IndexedHeap[Color, int]
	total  int
	// snapScratch is reused by snapshotState so repeated snapshots do
	// not allocate per call.
	snapScratch []container.Bucket
}

func newJobPool(numColors int) *jobPool {
	return &jobPool{
		queues: make([]container.BucketQueue, numColors),
		dl:     container.NewIndexedHeap[Color, int](numColors),
	}
}

func (p *jobPool) pending(c Color) int { return p.queues[c].Len() }

func (p *jobPool) totalPending() int { return p.total }

func (p *jobPool) earliestDeadline(c Color) (int, bool) {
	return p.queues[c].EarliestDeadline()
}

// add records count jobs of color c expiring at deadline.
func (p *jobPool) add(c Color, deadline, count int) {
	if count <= 0 {
		return
	}
	q := &p.queues[c]
	wasEmpty := q.Empty()
	q.Add(deadline, count)
	p.total += count
	if wasEmpty {
		p.dl.Push(c, deadline)
	}
	// A non-empty queue's earliest deadline is unchanged by Add because
	// per-color deadlines are nondecreasing.
}

// take executes one pending job of color c (the earliest-deadline one).
func (p *jobPool) take(c Color) (deadline int, ok bool) {
	q := &p.queues[c]
	deadline, ok = q.TakeEarliest()
	if !ok {
		return 0, false
	}
	p.total--
	// A color's buckets hold distinct deadlines, so its earliest deadline
	// moves only when the front bucket emptied. Re-fixing the heap at an
	// unchanged priority would move nothing, so it is skipped.
	if next, ok := q.EarliestDeadline(); !ok {
		p.dl.Remove(c)
	} else if next != deadline {
		p.dl.Update(c, next)
	}
	return deadline, true
}

// expire drops every job with deadline ≤ round, invoking onDrop per color
// that lost jobs, and returns the total number dropped.
func (p *jobPool) expire(round int, onDrop func(c Color, count int)) int {
	dropped := 0
	for {
		c, dl, ok := p.dl.Min()
		if !ok || dl > round {
			break
		}
		q := &p.queues[c]
		n := q.ExpireThrough(round)
		p.total -= n
		dropped += n
		if n > 0 && onDrop != nil {
			onDrop(c, n)
		}
		if next, ok := q.EarliestDeadline(); ok {
			p.dl.Update(c, next)
		} else {
			p.dl.Remove(c)
		}
	}
	return dropped
}

// nonidle appends the colors with pending jobs to dst in increasing color
// order and returns it. Allocation-free once dst has capacity
// (slices.Sort needs no reflection header, unlike sort.Slice).
func (p *jobPool) nonidle(dst []Color) []Color {
	start := len(dst)
	dst = p.dl.AppendKeys(dst)
	slices.Sort(dst[start:])
	return dst
}
