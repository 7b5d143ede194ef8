package serve

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sched"
)

// policyBySpec maps the stable spec strings tenants are opened with to
// fresh policy constructors. Every listed policy implements
// sched.Snapshotter, which per-tenant checkpointing requires.
var policyBySpec = map[string]func() sched.Policy{
	"dlruedf":    func() sched.Policy { return core.NewDLRUEDF() },
	"adaptive":   func() sched.Policy { return core.NewDLRUEDF(core.WithAdaptiveSplit()) },
	"dlru":       func() sched.Policy { return policy.NewDLRU() },
	"edf":        func() sched.Policy { return policy.NewEDF() },
	"seqedf":     func() sched.Policy { return policy.NewSeqEDF() },
	"greedy":     func() sched.Policy { return policy.NewGreedyPending() },
	"hysteresis": func() sched.Policy { return policy.NewHysteresis(1) },
	"never":      func() sched.Policy { return policy.NewNever() },
}

// NewPolicy builds a fresh policy from a tenant spec string. The spec —
// not the policy's display Name — is what open requests carry and what
// the server persists in the tenant's log records, so a restart
// reconstructs the same policy type for RestoreStream's name check.
func NewPolicy(spec string) (sched.Policy, error) {
	mk, ok := policyBySpec[spec]
	if !ok {
		return nil, fmt.Errorf("serve: unknown policy %q (known: %v)", spec, PolicySpecs())
	}
	return mk(), nil
}

// PolicySpecs lists the accepted policy spec strings, sorted.
func PolicySpecs() []string {
	specs := make([]string, 0, len(policyBySpec))
	for s := range policyBySpec {
		specs = append(specs, s)
	}
	sort.Strings(specs)
	return specs
}
