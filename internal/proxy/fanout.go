package proxy

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/serve"
)

// ctlTimeout bounds each call on a control connection, so a backend
// that accepts and then never answers cannot hang a fleet request, nor
// Close behind it. With the stale-connection retry in call, a stalled
// backend holds a fleet request up for at most two of these plus a dial.
const ctlTimeout = 2 * time.Second

// maxIdlePerBackend caps how many idle control connections the proxy
// keeps per backend. One covers a single poller; the slack absorbs a few
// concurrent fleet requests without redialing.
const maxIdlePerBackend = 4

// ctlPool keeps idle control connections (the client side of the serve
// protocol) per backend, for the fleet-wide requests the proxy answers
// itself. Only read-only requests run on pooled connections, which is
// what makes the stale-connection retry in call safe.
type ctlPool struct {
	mu   sync.Mutex
	idle map[string][]*serve.Client
}

// get pops an idle connection to addr, or returns nil.
func (cp *ctlPool) get(addr string) *serve.Client {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cs := cp.idle[addr]
	if len(cs) == 0 {
		return nil
	}
	c := cs[len(cs)-1]
	cp.idle[addr] = cs[:len(cs)-1]
	return c
}

// put returns a healthy connection to addr's idle list, closing it when
// the list is full.
func (cp *ctlPool) put(addr string, c *serve.Client) {
	cp.mu.Lock()
	if cs := cp.idle[addr]; len(cs) < maxIdlePerBackend {
		cp.idle[addr] = append(cs, c)
		c = nil
	}
	cp.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// drop closes every idle connection to addr, or to every backend when
// addr is "".
func (cp *ctlPool) drop(addr string) {
	cp.mu.Lock()
	var doomed []*serve.Client
	for a, cs := range cp.idle {
		if addr == "" || a == addr {
			doomed = append(doomed, cs...)
			delete(cp.idle, a)
		}
	}
	cp.mu.Unlock()
	for _, c := range doomed {
		c.Close()
	}
}

// dialBackend opens a fresh control connection to addr, bounded by
// dialTimeout so a black-holed backend cannot hang the caller.
func (p *Proxy) dialBackend(addr string) (*serve.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("proxy: dialing %s: %w", addr, err)
	}
	return serve.NewClient(conn), nil
}

// call runs one read-only request against addr on a pooled control
// connection. A pooled connection that fails may simply be stale — the
// backend restarted on the same address since it was last used — so it
// is discarded together with its idle siblings, and the request is
// retried once on a fresh dial; only a failure there counts against the
// backend. Each attempt is bounded by ctlTimeout.
func (p *Proxy) call(addr string, fn func(*serve.Client) error) error {
	bounded := func(c *serve.Client) error {
		if err := c.SetDeadline(time.Now().Add(ctlTimeout)); err != nil {
			return err
		}
		return fn(c)
	}
	if c := p.ctl.get(addr); c != nil {
		if bounded(c) == nil {
			p.ctl.put(addr, c)
			return nil
		}
		c.Close()
		p.ctl.drop(addr)
	}
	c, err := p.dialBackend(addr)
	if err != nil {
		return err
	}
	if err := bounded(c); err != nil {
		c.Close()
		return err
	}
	p.ctl.put(addr, c)
	return nil
}

// fanout runs fn(i, client) against every addrs[i] concurrently, each
// through call, and returns once all have finished. A backend whose call
// fails is probed (possibly marking it dead, which re-routes its
// tenants) and reported by a non-nil errs[i]; the caller skips it, so a
// fleet request never fails because one backend is mid-crash. fn must
// only write state indexed by i.
func (p *Proxy) fanout(addrs []string, fn func(i int, c *serve.Client) error) (errs []error) {
	errs = make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = p.call(addr, func(c *serve.Client) error { return fn(i, c) }); errs[i] != nil {
				p.probeBackend(addr)
			}
		}()
	}
	wg.Wait()
	return errs
}
