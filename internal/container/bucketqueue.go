package container

// BucketQueue tracks pending unit jobs of one color as a FIFO of
// (deadline, count) buckets. Deadlines are pushed in nondecreasing order
// (arrival time and delay bound are both nondecreasing per color in the
// model), so the front bucket always holds the earliest deadline.
//
// It supports the three operations the simulator needs per round:
// Add (arrival phase), ExpireThrough (drop phase) and TakeEarliest
// (execution phase), all amortized O(1).
type BucketQueue struct {
	buckets ringBuf
	total   int
}

// Bucket is a group of identical pending jobs: Count unit jobs that all
// expire at the start of round Deadline.
type Bucket struct {
	Deadline int
	Count    int
}

// Len reports the total number of pending jobs across all buckets.
func (q *BucketQueue) Len() int { return q.total }

// Empty reports whether no jobs are pending.
func (q *BucketQueue) Empty() bool { return q.total == 0 }

// Add records count jobs with the given deadline. Deadlines must be
// nondecreasing across calls; Add panics otherwise, because a violation
// means the caller broke the model invariant (per-color delay bounds are
// fixed, so deadlines arrive in order).
func (q *BucketQueue) Add(deadline, count int) {
	if count <= 0 {
		return
	}
	if n := q.buckets.len(); n > 0 {
		back := q.buckets.at(n - 1)
		if deadline < back.Deadline {
			panic("container: BucketQueue deadlines must be nondecreasing")
		}
		if deadline == back.Deadline {
			back.Count += count
			q.total += count
			return
		}
	}
	q.buckets.pushBack(Bucket{Deadline: deadline, Count: count})
	q.total += count
}

// EarliestDeadline returns the deadline of the oldest pending bucket.
// ok is false when the queue is empty.
func (q *BucketQueue) EarliestDeadline() (deadline int, ok bool) {
	if q.buckets.len() == 0 {
		return 0, false
	}
	return q.buckets.at(0).Deadline, true
}

// ExpireThrough drops every job whose deadline is ≤ round and returns the
// number of jobs dropped. (The model drops jobs with deadline exactly the
// current round; using ≤ makes the operation idempotent and robust.)
func (q *BucketQueue) ExpireThrough(round int) int {
	dropped := 0
	for q.buckets.len() > 0 {
		front := q.buckets.at(0)
		if front.Deadline > round {
			break
		}
		dropped += front.Count
		q.buckets.popFront()
	}
	q.total -= dropped
	return dropped
}

// TakeEarliest removes one job with the earliest deadline (EDF within the
// color, which is dominant). It returns the deadline of the executed job;
// ok is false when nothing is pending.
func (q *BucketQueue) TakeEarliest() (deadline int, ok bool) {
	if q.buckets.len() == 0 {
		return 0, false
	}
	front := q.buckets.at(0)
	deadline = front.Deadline
	front.Count--
	if front.Count == 0 {
		q.buckets.popFront()
	}
	q.total--
	return deadline, true
}

// Buckets appends a copy of the pending buckets to dst and returns it,
// front (earliest) first. It is used by the brute-force optimizer to build
// state signatures.
func (q *BucketQueue) Buckets(dst []Bucket) []Bucket {
	n := q.buckets.len()
	for i := 0; i < n; i++ {
		dst = append(dst, *q.buckets.at(i))
	}
	return dst
}

// ringBuf is a growable ring buffer of Buckets, avoiding the per-element
// allocation of a linked list in the simulator's hot path. Its capacity
// is zero or a power of two (grow doubles from 4), so a position wraps
// with a mask instead of a division.
type ringBuf struct {
	data  []Bucket
	head  int
	count int
}

func (r *ringBuf) len() int { return r.count }

func (r *ringBuf) at(i int) *Bucket {
	return &r.data[(r.head+i)&(len(r.data)-1)]
}

func (r *ringBuf) pushBack(b Bucket) {
	if r.count == len(r.data) {
		r.grow()
	}
	r.data[(r.head+r.count)&(len(r.data)-1)] = b
	r.count++
}

func (r *ringBuf) popFront() {
	r.data[r.head] = Bucket{}
	r.head = (r.head + 1) & (len(r.data) - 1)
	r.count--
	if r.count == 0 {
		r.head = 0
	}
}

func (r *ringBuf) grow() {
	newCap := 2 * len(r.data)
	if newCap == 0 {
		newCap = 4
	}
	nd := make([]Bucket, newCap)
	for i := 0; i < r.count; i++ {
		nd[i] = *r.at(i)
	}
	r.data = nd
	r.head = 0
}
