package container

import (
	"cmp"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intHeap() *IndexedHeap[int, int] {
	return NewIndexedHeap[int, int](64)
}

// priorityOf reads key's priority through Export, and whether key is
// present.
func priorityOf[K Integer, P cmp.Ordered](h *IndexedHeap[K, P], key K) (pri P, ok bool) {
	h.Export(func(k K, p P) {
		if k == key {
			pri, ok = p, true
		}
	})
	return pri, ok
}

func TestIndexedHeapBasic(t *testing.T) {
	h := intHeap()
	if h.Len() != 0 {
		t.Fatalf("new heap has Len %d", h.Len())
	}
	if _, _, ok := h.Min(); ok {
		t.Fatal("Min on empty heap reported ok")
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap reported ok")
	}
	h.Push(1, 30)
	h.Push(2, 10)
	h.Push(3, 20)
	if k, p, ok := h.Min(); !ok || k != 2 || p != 10 {
		t.Fatalf("Min = (%d,%d,%v), want (2,10,true)", k, p, ok)
	}
	if _, ok := priorityOf(h, 9); ok {
		t.Fatal("absent key 9 reported present")
	}
	if p, ok := priorityOf(h, 3); !ok || p != 20 {
		t.Fatalf("priority of 3 = (%d,%v)", p, ok)
	}
	k, p, _ := h.Pop()
	if k != 2 || p != 10 {
		t.Fatalf("Pop = (%d,%d), want (2,10)", k, p)
	}
	if h.Len() != 2 {
		t.Fatalf("Len after pop = %d", h.Len())
	}
}

func TestIndexedHeapUpdate(t *testing.T) {
	h := intHeap()
	for i := 0; i < 10; i++ {
		h.Push(i, i)
	}
	// Decrease key of 9 to the minimum.
	if !h.Update(9, -1) {
		t.Fatal("Update reported missing key")
	}
	if k, _, _ := h.Min(); k != 9 {
		t.Fatalf("after decrease-key Min = %d, want 9", k)
	}
	// Increase key of 0 to the maximum.
	h.Update(0, 100)
	var last int
	order := []int{}
	for h.Len() > 0 {
		k, p, _ := h.Pop()
		if len(order) > 0 && p < last {
			t.Fatalf("pop order not monotone: %d after %d", p, last)
		}
		last = p
		order = append(order, k)
	}
	if order[len(order)-1] != 0 {
		t.Fatalf("key 0 should pop last, order %v", order)
	}
	if h.Update(42, 1) {
		t.Fatal("Update on missing key reported true")
	}
}

func TestIndexedHeapPushExistingUpdates(t *testing.T) {
	h := intHeap()
	h.Push(1, 10)
	h.Push(1, 5)
	if h.Len() != 1 {
		t.Fatalf("duplicate push grew heap to %d", h.Len())
	}
	if p, _ := priorityOf(h, 1); p != 5 {
		t.Fatalf("Push on existing key did not update priority: %d", p)
	}
}

func TestIndexedHeapRemove(t *testing.T) {
	h := intHeap()
	for i := 0; i < 8; i++ {
		h.Push(i, 8-i)
	}
	if !h.Remove(4) {
		t.Fatal("Remove reported missing")
	}
	if h.Remove(4) {
		t.Fatal("double Remove reported present")
	}
	seen := map[int]bool{}
	for h.Len() > 0 {
		k, _, _ := h.Pop()
		seen[k] = true
	}
	if seen[4] {
		t.Fatal("removed key reappeared")
	}
	if len(seen) != 7 {
		t.Fatalf("popped %d keys, want 7", len(seen))
	}
}

func TestIndexedHeapClear(t *testing.T) {
	h := intHeap()
	h.Push(1, 1)
	h.Push(2, 2)
	h.Clear()
	if _, ok := priorityOf(h, 1); h.Len() != 0 || ok {
		t.Fatal("Clear left state behind")
	}
	h.Push(3, 3)
	if k, _, _ := h.Min(); k != 3 {
		t.Fatal("heap unusable after Clear")
	}
}

// TestIndexedHeapAgainstModel drives the heap with random operations and
// checks every observable against a naive map-based model.
func TestIndexedHeapAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := intHeap()
	model := map[int]int{}
	modelMin := func() (int, int, bool) {
		bestK, bestP, ok := 0, 0, false
		for k, p := range model {
			if !ok || p < bestP || (p == bestP && false) {
				bestK, bestP, ok = k, p, true
			}
		}
		return bestK, bestP, ok
	}
	for step := 0; step < 5000; step++ {
		k := rng.Intn(50)
		switch rng.Intn(4) {
		case 0: // push
			p := rng.Intn(1000)
			h.Push(k, p)
			model[k] = p
		case 1: // update
			p := rng.Intn(1000)
			got := h.Update(k, p)
			_, want := model[k]
			if got != want {
				t.Fatalf("step %d: Update(%d) = %v, model %v", step, k, got, want)
			}
			if want {
				model[k] = p
			}
		case 2: // remove
			got := h.Remove(k)
			_, want := model[k]
			if got != want {
				t.Fatalf("step %d: Remove(%d) = %v, model %v", step, k, got, want)
			}
			delete(model, k)
		case 3: // pop
			gk, gp, gok := h.Pop()
			_, mp, mok := modelMin()
			if gok != mok {
				t.Fatalf("step %d: Pop ok=%v, model ok=%v", step, gok, mok)
			}
			if gok {
				// Ties may pop either key, but the priority must match.
				if gp != mp {
					t.Fatalf("step %d: Pop priority %d, model min %d", step, gp, mp)
				}
				if model[gk] != gp {
					t.Fatalf("step %d: Pop key %d has model priority %d, want %d", step, gk, model[gk], gp)
				}
				delete(model, gk)
			}
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, h.Len(), len(model))
		}
	}
}

// TestIndexedHeapSortsProperty: pushing any int slice and popping yields a
// sorted sequence (property-based via testing/quick).
func TestIndexedHeapSortsProperty(t *testing.T) {
	f := func(xs []int) bool {
		h := intHeap()
		for i, x := range xs {
			h.Push(i, x)
		}
		var popped []int
		for h.Len() > 0 {
			_, p, _ := h.Pop()
			popped = append(popped, p)
		}
		if !sort.IntsAreSorted(popped) {
			return false
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		if len(want) != len(popped) {
			return false
		}
		for i := range want {
			if want[i] != popped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapKeys(t *testing.T) {
	h := intHeap()
	for i := 0; i < 5; i++ {
		h.Push(i, i)
	}
	keys := h.AppendKeys(nil)
	if len(keys) != 5 {
		t.Fatalf("Keys returned %d entries", len(keys))
	}
	seen := map[int]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Fatalf("Keys missing %d", i)
		}
	}
}

// TestIndexedHeapKeyRange: a key outside [0, n) is never present, and
// Import refuses it, so a corrupt checkpoint naming one is an error.
func TestIndexedHeapKeyRange(t *testing.T) {
	h := NewIndexedHeap[int32, int](4)
	for _, k := range []int32{-1, 4, 1 << 30} {
		if h.Import(k, 0) {
			t.Fatalf("Import(%d) accepted a key outside [0, 4)", k)
		}
		if _, ok := h.index(k); ok || h.Update(k, 1) || h.Remove(k) {
			t.Fatalf("key %d outside [0, 4) reported present", k)
		}
	}
	if !h.Import(3, 7) || h.Import(3, 8) {
		t.Fatal("Import of key 3 once must succeed and twice must fail")
	}
	if p, ok := priorityOf(h, 3); !ok || p != 7 || h.Len() != 1 {
		t.Fatalf("after Import(3, 7): priority = (%d, %v), Len %d", p, ok, h.Len())
	}
}
