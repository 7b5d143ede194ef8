package proxy

import (
	"fmt"
	"slices"
)

// Migrate moves one live tenant to the target backend: release on the
// source (flush its queue, snapshot, tombstone), restore on the target,
// then flip the route. Submits racing the migration bounce off the source's
// tombstone with a retryable draining error and, once re-routed, off
// the target's sequence check with a BadSeq rewind — the two
// mechanisms that make the move invisible to a resumable client
// (rrload -verify stays bit-identical across a mid-run migration).
//
// If the restore fails, the tenant's state is restored back onto the
// source (over its own tombstone) so a failed migration strands
// nothing; only if that also fails — source lost between release and
// restore-back — does the tenant stay tombstoned, and the error says
// so.
func (p *Proxy) Migrate(tenant, target string) error {
	if target != p.cfg.Standby && !slices.Contains(p.cfg.Backends, target) {
		return fmt.Errorf("proxy: migrate %s: unknown target backend %s", tenant, target)
	}
	src := p.route(tenant)
	if src == "" {
		return fmt.Errorf("proxy: migrate %s: no live backend owns the tenant", tenant)
	}
	if src == target {
		return nil
	}
	// Fresh connections, not pooled ones: release and restore mutate
	// state, so they must never take the fan-out's stale-retry path.
	sc, err := p.dialBackend(src)
	if err != nil {
		return fmt.Errorf("proxy: migrate %s: source: %w", tenant, err)
	}
	defer sc.Close()
	rel, err := sc.Release(tenant)
	if err != nil {
		return fmt.Errorf("proxy: migrate %s: releasing from %s: %w", tenant, src, err)
	}
	tc, err := p.dialBackend(target)
	if err == nil {
		defer tc.Close()
		_, err = tc.Restore(tenant, rel.Config, rel.Blob)
	}
	if err != nil {
		// Put the state back where it came from; the source's tombstone
		// accepts a restore (that is how migrating back works too).
		if _, berr := sc.Restore(tenant, rel.Config, rel.Blob); berr != nil {
			return fmt.Errorf("proxy: migrate %s: restore on %s failed (%v) and restore-back on %s failed too: %w",
				tenant, target, err, src, berr)
		}
		return fmt.Errorf("proxy: migrate %s: restoring on %s (state returned to %s): %w", tenant, target, src, err)
	}
	p.mu.Lock()
	home := p.cfg.Backends[Pick(p.cfg.Backends, tenant)]
	if home == target && !p.dead[target] {
		delete(p.overrides, tenant) // the hash already says target
	} else {
		p.overrides[tenant] = target
	}
	p.mu.Unlock()
	p.logf("proxy: migrated tenant %s %s → %s (resume seq %d)", tenant, src, target, rel.NextSeq)
	return nil
}
