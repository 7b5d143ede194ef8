// Package policy implements the baseline online reconfiguration schemes of
// §3.1 — ΔLRU (§3.1.1), EDF (§3.1.2), Seq-EDF and its double-speed variant
// DS-Seq-EDF (§3.3) — together with naive baselines used in experiments,
// and the shared cache machinery all of them (and the ΔLRU-EDF algorithm
// in internal/core) are built on.
package policy

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/snap"
)

// Cache views the n resources as cache locations holding colors (§3.1).
// With replication enabled (the §3 online algorithms), the first n/2
// locations hold distinct colors and the remaining n/2 replicate them, so
// each cached color occupies exactly two locations and executes up to two
// jobs per mini-round. Seq-EDF disables replication and caches n distinct
// colors.
type Cache struct {
	n      int
	half   int
	slots  []sched.Color
	slotOf []int32 // slotOf[col] is col's slot, −1 when col is not cached
	assign []sched.Color
	free   []int
	repl   bool

	// Scratch reused by SyncTo so the per-round "pin the exact cache
	// content" policies (ΔLRU, GreedyPending) stay allocation-free in the
	// steady state: want marks the requested colors during one call.
	want     []bool
	evictBuf []sched.Color
}

// checkCacheN states a cache's rule on its location count: at least
// one location, and an even count when replicated, since each cached
// color then takes two. NewCache panics with its error; the policies
// over a replicated cache report it as their sched.EnvChecker.
func checkCacheN(n int, replicate bool) error {
	switch {
	case n < 1:
		return &sched.ConfigError{Field: "N", Color: -1, Value: n, Want: "≥ 1"}
	case replicate && n%2 != 0:
		return &sched.ConfigError{Field: "N", Color: -1, Value: n, Want: "even, for a replicated cache"}
	}
	return nil
}

// NewCache builds a cache over n locations for the colors [0,
// numColors). With replicate set, n must be even and the distinct
// capacity is n/2; otherwise the capacity is n.
func NewCache(n, numColors int, replicate bool) *Cache {
	if err := checkCacheN(n, replicate); err != nil {
		panic(err)
	}
	half := n
	if replicate {
		half = n / 2
	}
	c := &Cache{
		n:      n,
		half:   half,
		slots:  make([]sched.Color, half),
		slotOf: make([]int32, numColors),
		assign: make([]sched.Color, n),
		repl:   replicate,
		want:   make([]bool, numColors),
	}
	for i := range c.slots {
		c.slots[i] = sched.NoColor
	}
	for i := range c.slotOf {
		c.slotOf[i] = -1
	}
	for i := range c.assign {
		c.assign[i] = sched.NoColor
	}
	// Free slots are kept as a stack with the lowest indices on top so
	// slot allocation is deterministic.
	c.free = make([]int, half)
	for i := range c.free {
		c.free[i] = half - 1 - i
	}
	return c
}

// Capacity reports the number of distinct colors the cache can hold.
func (c *Cache) Capacity() int { return c.half }

// Len reports the number of distinct colors currently cached.
func (c *Cache) Len() int { return c.half - len(c.free) }

// Contains reports whether color col is cached.
func (c *Cache) Contains(col sched.Color) bool {
	return uint32(col) < uint32(len(c.slotOf)) && c.slotOf[col] >= 0
}

// Insert caches col in a free slot. It panics if col is already cached and
// reports false when the cache is full.
func (c *Cache) Insert(col sched.Color) bool {
	if c.Contains(col) {
		panic(fmt.Sprintf("policy: Insert of already-cached color %d", col))
	}
	if len(c.free) == 0 {
		return false
	}
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.slots[slot] = col
	c.slotOf[col] = int32(slot)
	return true
}

// Evict removes col from the cache, reporting whether it was present.
func (c *Cache) Evict(col sched.Color) bool {
	if !c.Contains(col) {
		return false
	}
	slot := c.slotOf[col]
	c.slotOf[col] = -1
	c.slots[slot] = sched.NoColor
	c.free = append(c.free, int(slot))
	return true
}

// Colors appends the cached colors to dst in slot order and returns it.
func (c *Cache) Colors(dst []sched.Color) []sched.Color {
	for _, col := range c.slots {
		if col != sched.NoColor {
			dst = append(dst, col)
		}
	}
	return dst
}

// SyncTo makes the cache contain exactly the colors in want, which must
// contain no duplicates and fit the capacity: cached colors outside want
// are evicted, missing ones inserted. The scratch it needs is owned by
// the cache, so steady-state calls do not allocate.
func (c *Cache) SyncTo(want []sched.Color) {
	for _, col := range want {
		c.want[col] = true
	}
	c.evictBuf = c.evictBuf[:0]
	for _, col := range c.slots {
		if col != sched.NoColor && !c.want[col] {
			c.evictBuf = append(c.evictBuf, col)
		}
	}
	for _, col := range want {
		c.want[col] = false
	}
	for _, col := range c.evictBuf {
		c.Evict(col)
	}
	for _, col := range want {
		if !c.Contains(col) {
			if !c.Insert(col) {
				panic("policy: Cache.SyncTo overflow")
			}
		}
	}
}

// cacheSnapVersion identifies the Cache checkpoint layout.
const cacheSnapVersion = 1

// Snapshot appends the cache's dynamic state to e: the slot array and
// the free-slot stack, both in exact order. The free-stack order is
// history-dependent and decides which slot the next Insert picks, so it
// must survive for deterministic resume; the slot-of index is derived
// and rebuilt on Restore.
func (c *Cache) Snapshot(e *snap.Encoder) {
	e.Int(cacheSnapVersion)
	e.Int(c.n)
	e.Bool(c.repl)
	e.Int(len(c.slots))
	for _, col := range c.slots {
		e.Int(int(col))
	}
	e.Ints(c.free)
}

// Restore rebuilds the cache from d. The receiver must be freshly
// constructed with the same n, color count and replication the snapshot
// was taken under. Every structural invariant is re-validated — slot
// colors distinct and inside [0, numColors), free stack exactly covering
// the empty slots — and violations surface as errors, never panics.
func (c *Cache) Restore(d *snap.Decoder) error {
	if v := d.Int(); d.Err() == nil && v != cacheSnapVersion {
		d.Failf("policy: cache snapshot version %d, this build reads %d", v, cacheSnapVersion)
	}
	if v := d.Int(); d.Err() == nil && v != c.n {
		d.Failf("policy: snapshot cache has n=%d, this cache has n=%d", v, c.n)
	}
	if v := d.Bool(); d.Err() == nil && v != c.repl {
		d.Failf("policy: snapshot replication flag %v, this cache has %v", v, c.repl)
	}
	if ns := d.Len(); d.Err() == nil && ns != c.half {
		d.Failf("policy: snapshot has %d slots, this cache has %d", ns, c.half)
	}
	if err := d.Err(); err != nil {
		return err
	}
	for i := range c.slotOf {
		c.slotOf[i] = -1
	}
	cached := 0
	for i := range c.slots {
		col := sched.Color(d.Int())
		if d.Err() != nil {
			return d.Err()
		}
		if col != sched.NoColor {
			if col < 0 || int(col) >= len(c.slotOf) {
				d.Failf("policy: slot %d holds color %d outside [0, %d)", i, col, len(c.slotOf))
				return d.Err()
			}
			if c.slotOf[col] >= 0 {
				d.Failf("policy: color %d cached in two slots", col)
				return d.Err()
			}
			c.slotOf[col] = int32(i)
			cached++
		}
		c.slots[i] = col
	}
	free := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if len(free) != c.half-cached {
		d.Failf("policy: free stack has %d entries for %d empty slots", len(free), c.half-cached)
		return d.Err()
	}
	seen := make([]bool, c.half)
	for _, f := range free {
		if f < 0 || f >= c.half || c.slots[f] != sched.NoColor || seen[f] {
			d.Failf("policy: free stack entry %d is not a distinct empty slot", f)
			return d.Err()
		}
		seen[f] = true
	}
	c.free = append(c.free[:0], free...)
	return nil
}

// Assignment materializes the location assignment: location i gets
// slots[i], and with replication location i+n/2 mirrors location i. The
// returned slice is reused across calls.
func (c *Cache) Assignment() []sched.Color {
	copy(c.assign, c.slots)
	if c.repl {
		copy(c.assign[c.half:], c.slots)
	}
	return c.assign
}
