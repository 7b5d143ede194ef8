// Package container provides the data-structure substrate used by the
// scheduling policies: an indexed min-heap with decrease-key, a deadline
// bucket queue, and a deterministic RNG. All structures are deterministic
// and allocation-lean; none are safe for concurrent use unless stated
// otherwise.
package container

import "cmp"

// Integer is the key constraint of IndexedHeap: any integer type, so a
// key doubles as an index into the heap's dense position table.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// IndexedHeap is a binary min-heap over items identified by an integer
// key in [0, n). It supports O(log n) push, pop, remove-by-key and
// priority update (both decrease and increase), which the EDF-style
// policies need when a color's deadline or idleness rank changes in
// place. Item positions live in a dense table indexed by key, so the
// sift loops update a slice entry instead of hashing the key, and
// priorities compare with <, inline in the sift loops.
//
// The zero value is not ready for use; construct with NewIndexedHeap.
type IndexedHeap[K Integer, P cmp.Ordered] struct {
	items []heapItem[K, P]
	pos   []int32 // pos[key] is key's index in items, −1 when absent
}

type heapItem[K Integer, P cmp.Ordered] struct {
	key K
	pri P
}

// NewIndexedHeap returns an empty indexed min-heap over the keys
// [0, n): the item with the smallest priority pops first.
func NewIndexedHeap[K Integer, P cmp.Ordered](n int) *IndexedHeap[K, P] {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &IndexedHeap[K, P]{pos: pos}
}

// index returns key's position in items, and whether key is present. A
// key outside [0, n) is never present.
func (h *IndexedHeap[K, P]) index(key K) (int, bool) {
	if uint64(key) >= uint64(len(h.pos)) {
		return 0, false
	}
	i := h.pos[key]
	return int(i), i >= 0
}

// Len reports the number of items in the heap.
func (h *IndexedHeap[K, P]) Len() int { return len(h.items) }

// Push inserts key with the given priority. If key is already present its
// priority is updated instead (equivalent to Update). key must lie in
// [0, n).
func (h *IndexedHeap[K, P]) Push(key K, pri P) {
	if i, ok := h.index(key); ok {
		h.items[i].pri = pri
		h.fix(i)
		return
	}
	h.items = append(h.items, heapItem[K, P]{key: key, pri: pri})
	i := len(h.items) - 1
	h.pos[key] = int32(i)
	h.up(i)
}

// Update changes the priority of key and restores heap order. It reports
// whether key was present.
func (h *IndexedHeap[K, P]) Update(key K, pri P) bool {
	i, ok := h.index(key)
	if !ok {
		return false
	}
	h.items[i].pri = pri
	h.fix(i)
	return true
}

// Min returns the key and priority of the minimum item without removing
// it. ok is false when the heap is empty.
func (h *IndexedHeap[K, P]) Min() (key K, pri P, ok bool) {
	if len(h.items) == 0 {
		var zk K
		var zp P
		return zk, zp, false
	}
	return h.items[0].key, h.items[0].pri, true
}

// Pop removes and returns the minimum item. ok is false when empty.
func (h *IndexedHeap[K, P]) Pop() (key K, pri P, ok bool) {
	if len(h.items) == 0 {
		var zk K
		var zp P
		return zk, zp, false
	}
	top := h.items[0]
	h.removeAt(0)
	return top.key, top.pri, true
}

// Remove deletes key from the heap, reporting whether it was present.
func (h *IndexedHeap[K, P]) Remove(key K) bool {
	i, ok := h.index(key)
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

// Clear empties the heap, retaining allocated capacity.
func (h *IndexedHeap[K, P]) Clear() {
	for _, it := range h.items {
		h.pos[it.key] = -1
	}
	h.items = h.items[:0]
}

// AppendKeys appends the keys currently in the heap to dst in unspecified
// order and returns it. Allocation-free once dst has capacity; hot paths
// (the engine's nonidle-color scan) use it with reusable scratch.
func (h *IndexedHeap[K, P]) AppendKeys(dst []K) []K {
	for _, it := range h.items {
		dst = append(dst, it.key)
	}
	return dst
}

// Export calls f for every (key, priority) pair in internal array
// order. Together with Import it lets a checkpoint preserve the heap's
// exact layout: restoring the same array order guarantees the restored
// heap breaks priority ties identically to the original, which the
// deterministic-resume contract of the checkpoint subsystem relies on.
func (h *IndexedHeap[K, P]) Export(f func(key K, pri P)) {
	for _, it := range h.items {
		f(it.key, it.pri)
	}
}

// Import appends one item without re-establishing heap order, rebuilding
// the exact layout captured by Export: the caller must Clear first and
// replay the pairs in Export order. It reports false (and leaves the
// heap unchanged) when key is already present or outside [0, n) — a
// corrupt checkpoint, which the caller must treat as an error.
func (h *IndexedHeap[K, P]) Import(key K, pri P) bool {
	if uint64(key) >= uint64(len(h.pos)) || h.pos[key] >= 0 {
		return false
	}
	h.items = append(h.items, heapItem[K, P]{key: key, pri: pri})
	h.pos[key] = int32(len(h.items) - 1)
	return true
}

func (h *IndexedHeap[K, P]) removeAt(i int) {
	last := len(h.items) - 1
	h.pos[h.items[i].key] = -1
	if i != last {
		h.items[i] = h.items[last]
		h.pos[h.items[i].key] = int32(i)
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		h.fix(i)
	}
}

func (h *IndexedHeap[K, P]) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *IndexedHeap[K, P]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !(h.items[i].pri < h.items[parent].pri) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts item i toward the leaves; it reports whether the item moved.
func (h *IndexedHeap[K, P]) down(i int) bool {
	start := i
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.items[r].pri < h.items[l].pri {
			child = r
		}
		if !(h.items[child].pri < h.items[i].pri) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > start
}

func (h *IndexedHeap[K, P]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].key] = int32(i)
	h.pos[h.items[j].key] = int32(j)
}
