package service

import (
	"context"
	"sync"
	"sync/atomic"

	"pesto/internal/obs"
)

// fill is one in-flight solve of a missing key. Concurrent requests
// for the key coalesce onto it (singleflight): the fill runs on its
// own goroutine and every requester — including the one that
// triggered it — just waits on ready. The fill's context stays alive
// while at least one requester is still interested; when the last
// waiter abandons (client disconnect, deadline), the fill is cancelled
// so an orphaned solve cannot hold a solver slot.
type fill struct {
	// ready is closed once body/err are final.
	ready chan struct{}
	body  []byte
	err   error
	// interest counts requesters waiting on ready. When a waiter that
	// leaves early drops it to zero, cancel aborts the solve: nobody is
	// left to consume the answer. Guarded by the cache mutex.
	interest int
	cancel   context.CancelFunc
}

// cachedPlan is one completed entry: the serialized response body and
// the graph fingerprint, the fleet ring's shard coordinate.
type cachedPlan struct {
	fp   [32]byte
	body []byte
}

// planCache is the content-addressed plan store: a bounded LRU from
// cache key (graph fingerprint + normalized options) to the serialized
// response body, with singleflight fill. Hits return the stored bytes
// verbatim, which is what makes repeated identical requests
// byte-identical. Only completed bodies take a slot of the bound;
// in-flight fills live beside the LRU until they finish.
type planCache struct {
	plans *obs.LRU[[32]byte, cachedPlan]
	// mu guards filling and orders a fill's hand-over to plans against
	// getOrFill and install, which check both: neither ever sees a key
	// in both or, mid-hand-over, in neither.
	mu      sync.Mutex
	filling map[[32]byte]*fill

	// fills counts fill functions started — the singleflight
	// observable: after any mix of concurrent requests with no
	// evictions, fills == distinct keys.
	fills atomic.Int64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		plans:   obs.NewLRU[[32]byte, cachedPlan](capacity),
		filling: make(map[[32]byte]*fill),
	}
}

// getOrFill returns the body stored under key, running fn to produce
// it on first request. Exactly one fill runs per live key regardless
// of concurrency; it executes on a dedicated goroutine under a context
// which is cancelled only when every waiter has abandoned the key —
// so a singleflight leader hanging up never strands its followers
// (the solve keeps running for them), while a solve nobody wants
// anymore is cancelled and its solver slot freed.
// A failed fill is not cached, so a later request retries, but every
// follower already waiting shares the fill's error rather than
// stampeding the solver.
//
// hit reports whether the body came from the cache: false only for the
// requester that triggered the fill.
func (c *planCache) getOrFill(ctx context.Context, key, fp [32]byte, fn func(ctx context.Context) ([]byte, error)) (body []byte, hit bool, err error) {
	c.mu.Lock()
	if p, ok := c.plans.Get(key); ok {
		c.mu.Unlock()
		return p.body, true, nil
	}
	if f, ok := c.filling[key]; ok {
		f.interest++
		c.mu.Unlock()
		return c.wait(ctx, f, true)
	}
	fillCtx, cancel := context.WithCancel(context.Background())
	f := &fill{ready: make(chan struct{}), interest: 1, cancel: cancel}
	c.filling[key] = f
	c.mu.Unlock()

	c.fills.Add(1)
	go func() {
		defer cancel()
		body, err := fn(fillCtx)
		c.mu.Lock()
		f.body, f.err = body, err
		delete(c.filling, key)
		if err == nil {
			c.plans.Put(key, cachedPlan{fp: fp, body: body})
		}
		c.mu.Unlock()
		close(f.ready)
	}()
	return c.wait(ctx, f, false)
}

// wait blocks until the fill completes or ctx ends. Leaving early
// decrements the fill's interest count under the cache mutex; the
// waiter that drops it to zero cancels the fill (still under the
// mutex, so a new requester arriving concurrently either raises the
// count first — and keeps the fill alive — or joins a cancelled fill
// and shares its error).
func (c *planCache) wait(ctx context.Context, f *fill, hit bool) ([]byte, bool, error) {
	select {
	case <-f.ready:
		return f.body, hit, f.err
	case <-ctx.Done():
		c.mu.Lock()
		if f.interest--; f.interest == 0 {
			f.cancel()
		}
		c.mu.Unlock()
		return nil, false, ctx.Err()
	}
}

// lookup returns the completed body stored under key, if any,
// refreshing its LRU position. Unlike getOrFill it never waits on an
// in-flight fill and never starts one — the delta near-hit check uses
// it to reuse an existing cold solve without blocking.
func (c *planCache) lookup(key [32]byte) ([]byte, bool) {
	p, ok := c.plans.Get(key)
	return p.body, ok
}

// peek reports whether key is cached and filled, without touching LRU
// order. Tests use it.
func (c *planCache) peek(key [32]byte) bool {
	_, ok := c.plans.Peek(key)
	return ok
}

// len reports the number of live entries, in-flight fills included.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plans.Len() + len(c.filling)
}

// install inserts one completed entry (fleet warm-sync import) at the
// cold end: it is restored state, not observed traffic, and must not
// evict genuinely hot entries, so a full cache refuses it. An existing
// entry for the key, filled or filling, is left untouched: local
// solves outrank synced copies. It reports whether the entry was
// installed.
func (c *planCache) install(key, fp [32]byte, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.filling[key]; ok {
		return false
	}
	return c.plans.AddCold(key, cachedPlan{fp: fp, body: body})
}

// arcContains reports whether point p lies on the ring arc (lo, hi].
// lo == hi denotes the full ring (a single-replica fleet owns
// everything); lo > hi wraps through zero.
func arcContains(lo, hi, p uint64) bool {
	if lo == hi {
		return true
	}
	if lo < hi {
		return lo < p && p <= hi
	}
	return p > lo || p <= hi
}
