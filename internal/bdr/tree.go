package bdr

import "fmt"

// InfeasibleError reports a reservation the tree cannot admit, carrying
// the shard's residual capacity so the caller (and ultimately the
// remote client) can see what would have fit: ResidualRate is the
// unreserved fraction of the shard and MinDelay the smallest delay
// bound an admissible child may declare (exclusive — a child's delay
// must exceed it).
type InfeasibleError struct {
	// Shard is the index of the shard the reservation was aimed at.
	Shard int
	// ResidualRate is the rate still unreserved on that shard.
	ResidualRate float64
	// MinDelay is the shard's own delay bound; children must declare a
	// strictly larger delay.
	MinDelay float64
	// Reason describes which Theorem-1 condition failed.
	Reason string
}

// Error formats the infeasibility with the residual capacity inline.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("bdr: infeasible reservation on shard %d: %s (residual rate %g, min delay >%g)",
		e.Shard, e.Reason, e.ResidualRate, e.MinDelay)
}

// Tree is a two-level hierarchical reservation tree: a machine root
// hosting shard children, each shard hosting tenant reservations. The
// machine → shard level is validated once at construction (the shard
// set is static); the shard → tenant level changes online through
// Admit and Release. Admit preserves Theorem-1 feasibility: a
// reservation that would break it fails with *InfeasibleError and
// leaves the tree unchanged.
//
// Tree is not safe for concurrent use; the serve layer guards it with
// the server mutex it already holds around tenant registration.
type Tree struct {
	shards []BDR
	// reserved[i] maps tenant ID → admitted reservation on shard i.
	reserved []map[string]BDR
	// sums[i] caches Σ reserved[i].Rate so Admit is O(1), recomputed
	// from scratch on Release to stop float drift accumulating.
	sums []float64
}

// NewTree builds a reservation tree for a machine hosting the given
// shard reservations, validating the machine → shard level with
// CanHost. Shard delays must strictly exceed the machine delay and
// shard rates must sum to at most the machine rate.
func NewTree(machine BDR, shards []BDR) (*Tree, error) {
	if !machine.Valid() {
		return nil, fmt.Errorf("bdr: invalid machine reservation %+v", machine)
	}
	for i, s := range shards {
		if !s.Valid() {
			return nil, fmt.Errorf("bdr: invalid shard %d reservation %+v", i, s)
		}
	}
	if !CanHost(machine, shards) {
		return nil, fmt.Errorf("bdr: machine (rate %g, delay %g) cannot host %d shards (Σ rate %g)",
			machine.Rate, machine.Delay, len(shards), sumRates(shards))
	}
	t := &Tree{
		shards:   append([]BDR(nil), shards...),
		reserved: make([]map[string]BDR, len(shards)),
		sums:     make([]float64, len(shards)),
	}
	for i := range t.reserved {
		t.reserved[i] = make(map[string]BDR)
	}
	return t, nil
}

// Admit reserves r for tenant id on shard i, failing with
// *InfeasibleError if the reservation would violate the shard's
// Theorem-1 feasibility. Admitting an ID that already holds a
// reservation on the shard is an error.
func (t *Tree) Admit(shard int, id string, r BDR) error {
	if !r.Valid() {
		return fmt.Errorf("bdr: invalid reservation %+v for %q", r, id)
	}
	if _, ok := t.reserved[shard][id]; ok {
		return fmt.Errorf("bdr: %q already reserved on shard %d", id, shard)
	}
	if err := t.check(shard, r); err != nil {
		return err
	}
	t.reserved[shard][id] = r
	t.sums[shard] += r.Rate
	return nil
}

// Release frees tenant id's reservation on shard i. Releasing an ID
// with no reservation is a no-op, so callers can release
// unconditionally on tenant teardown.
func (t *Tree) Release(shard int, id string) {
	if _, ok := t.reserved[shard][id]; !ok {
		return
	}
	delete(t.reserved[shard], id)
	t.sums[shard] = sumMap(t.reserved[shard])
}

// check applies the Theorem-1 conditions for admitting r onto shard i
// beside the children it already hosts.
func (t *Tree) check(shard int, r BDR) error {
	s, base := t.shards[shard], t.sums[shard]
	resid := s.Rate - base
	if resid < 0 {
		resid = 0
	}
	if r.Delay <= s.Delay {
		return &InfeasibleError{
			Shard: shard, ResidualRate: resid, MinDelay: s.Delay,
			Reason: fmt.Sprintf("delay %g must exceed shard delay %g", r.Delay, s.Delay),
		}
	}
	if base+r.Rate > s.Rate*(1+rateEpsilon) {
		return &InfeasibleError{
			Shard: shard, ResidualRate: resid, MinDelay: s.Delay,
			Reason: fmt.Sprintf("rate %g exceeds residual %g", r.Rate, resid),
		}
	}
	return nil
}

func sumRates(bs []BDR) float64 {
	s := 0.0
	for _, b := range bs {
		s += b.Rate
	}
	return s
}

func sumMap(m map[string]BDR) float64 {
	s := 0.0
	for _, b := range m {
		s += b.Rate
	}
	return s
}
