package policy

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/snap"
)

func TestCacheReplicatedLayout(t *testing.T) {
	c := NewCache(4, 16, true)
	if c.Capacity() != 2 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	if !c.Insert(7) || !c.Insert(9) {
		t.Fatal("Insert failed with free slots")
	}
	if c.Insert(11) {
		t.Fatal("Insert succeeded on a full cache")
	}
	a := c.Assignment()
	if len(a) != 4 {
		t.Fatalf("Assignment length %d", len(a))
	}
	// Replication: location i+n/2 mirrors location i.
	if a[0] != a[2] || a[1] != a[3] {
		t.Fatalf("replication broken: %v", a)
	}
	count := map[sched.Color]int{}
	for _, col := range a {
		count[col]++
	}
	if count[7] != 2 || count[9] != 2 {
		t.Fatalf("each color must appear exactly twice: %v", a)
	}
}

func TestCacheUnreplicated(t *testing.T) {
	c := NewCache(3, 16, false)
	if c.Capacity() != 3 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
	c.Insert(1)
	a := c.Assignment()
	occupied := 0
	for _, col := range a {
		if col != sched.NoColor {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("one insert should occupy one location: %v", a)
	}
}

func TestCacheEvictReusesSlots(t *testing.T) {
	c := NewCache(4, 16, true)
	c.Insert(1)
	c.Insert(2)
	if !c.Evict(1) {
		t.Fatal("Evict reported missing")
	}
	if c.Evict(1) {
		t.Fatal("double Evict reported present")
	}
	if c.Len() != 1 || c.Contains(1) {
		t.Fatal("evict bookkeeping wrong")
	}
	if !c.Insert(3) {
		t.Fatal("Insert after evict failed")
	}
	if !c.Contains(3) || !c.Contains(2) {
		t.Fatal("contents wrong after reuse")
	}
}

func TestCacheInsertDuplicatePanics(t *testing.T) {
	c := NewCache(4, 16, true)
	c.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	c.Insert(1)
}

func TestCacheOddReplicatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd replicated cache did not panic")
		}
	}()
	NewCache(3, 16, true)
}

func TestCacheColorsSlotOrder(t *testing.T) {
	c := NewCache(6, 16, true)
	c.Insert(5)
	c.Insert(1)
	c.Insert(3)
	got := c.Colors(nil)
	// Slots are allocated lowest-index first, so insertion order holds.
	want := []sched.Color{5, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Colors = %v, want %v", got, want)
		}
	}
}

func TestSyncCacheToSet(t *testing.T) {
	c := NewCache(6, 16, true)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	SyncCacheToSet(c, []sched.Color{2, 4})
	if c.Len() != 2 || !c.Contains(2) || !c.Contains(4) || c.Contains(1) || c.Contains(3) {
		t.Fatalf("SyncCacheToSet wrong: %v", c.Colors(nil))
	}
}

// TestCacheRestoreRejectsForeignColor: a snapshot whose slot holds a
// color outside the restoring cache's [0, numColors) is an error, not a
// cache that hands the engine an unknown color on the next Step.
func TestCacheRestoreRejectsForeignColor(t *testing.T) {
	src := NewCache(4, 100, true)
	src.Insert(99)
	e := snap.NewEncoder()
	src.Snapshot(e)
	if err := NewCache(4, 100, true).Restore(snap.NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("restore over 100 colors: %v", err)
	}
	err := NewCache(4, 3, true).Restore(snap.NewDecoder(e.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "color 99 outside [0, 3)") {
		t.Fatalf("restore over 3 colors: %v, want the slot color named out of range", err)
	}
}
