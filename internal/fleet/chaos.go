package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pesto/internal/fault"
)

// ChaosBackend wraps a Backend with a deterministic service-tier fault
// injector: kills turn every request into ErrReplicaDown, probe
// blackholes eat /healthz only (traffic still flows — the
// detection-vs-reality divergence). The spec's latency spikes are not
// realized: the harness never waits. Time is an injected elapsed-clock
// function, so the chaos harness advances a virtual clock between
// phases and the whole schedule replays from (spec, seed) alone;
// production-shaped soak tests pass time.Since(start).
type ChaosBackend struct {
	inj   *fault.FleetInjector
	clock func() time.Duration

	mu    sync.Mutex
	inner Backend
}

// NewChaosBackend wraps inner under the injector and elapsed clock.
func NewChaosBackend(inner Backend, inj *fault.FleetInjector, clock func() time.Duration) *ChaosBackend {
	return &ChaosBackend{inner: inner, inj: inj, clock: clock}
}

// Replace swaps the wrapped backend — the harness's "restart": a
// killed replica coming back as a fresh process is modeled by swapping
// in a new service.Server with an empty cache, which is exactly what
// makes warm-sync measurable.
func (c *ChaosBackend) Replace(inner Backend) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner = inner
}

func (c *ChaosBackend) current() Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner
}

// ID implements Backend.
func (c *ChaosBackend) ID() string { return c.current().ID() }

// Do implements Backend under the fault schedule.
func (c *ChaosBackend) Do(ctx context.Context, method, path string, hdr http.Header, body []byte) (*Response, error) {
	id := c.ID()
	t := c.clock()
	if c.inj.Killed(id, t) {
		return nil, fmt.Errorf("%w: %s killed at %v", ErrReplicaDown, id, t)
	}
	if method == http.MethodGet && path == "/healthz" && c.inj.Blackholed(id, t) {
		return nil, fmt.Errorf("%w: probe to %s blackholed at %v", ErrReplicaDown, id, t)
	}
	return c.current().Do(ctx, method, path, hdr, body)
}
