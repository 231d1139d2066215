package fleet

import (
	"slices"
	"sync"
	"time"
)

// latencySamples bounds the tracker's ring buffer: enough history for
// a stable p95, small enough that the fleet adapts to a latency regime
// change within a few hundred requests.
const latencySamples = 256

// latencyTracker keeps a sliding window of successful request
// latencies and answers "what delay should trigger a hedge": the p95,
// clamped to a configured band so a cold tracker (or a pathological
// window) never hedges instantly or never at all.
type latencyTracker struct {
	mu      sync.Mutex
	samples [latencySamples]time.Duration
	n       int // filled count, up to latencySamples
	next    int // write cursor
}

// observe records one successful request's latency.
func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[t.next] = d
	t.next = (t.next + 1) % latencySamples
	if t.n < latencySamples {
		t.n++
	}
}

// p95 returns the current 95th-percentile latency clamped to
// [min, max]. With fewer than a handful of samples it returns max —
// hedging waits until there is evidence of what "slow" means.
func (t *latencyTracker) p95(min, max time.Duration) time.Duration {
	var buf [latencySamples]time.Duration
	t.mu.Lock()
	n := copy(buf[:], t.samples[:t.n])
	t.mu.Unlock()
	if n < 8 {
		return max
	}
	window := buf[:n]
	slices.Sort(window)
	p := window[(n*95)/100]
	if p < min {
		return min
	}
	if p > max {
		return max
	}
	return p
}
