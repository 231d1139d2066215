package fleet

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func testBreaker() *breaker {
	return newBreaker(breakerConfig{
		window:     5 * time.Second,
		minSamples: 4,
		failFrac:   0.5,
		cooldown:   2 * time.Second,
	})
}

func TestBreakerOpensOnErrorRate(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	// Three failures are below minSamples: still closed.
	for i := 0; i < 3; i++ {
		if !b.allow(now) {
			t.Fatal("closed breaker refused a request")
		}
		b.record(now, false)
	}
	if b.current() != breakerClosed {
		t.Fatal("breaker opened below minSamples")
	}
	b.record(now, false) // 4th failure: 4/4 over threshold
	if b.current() != breakerOpen {
		t.Fatal("breaker stayed closed past the failure threshold")
	}
	if b.allow(now.Add(time.Second)) {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		b.record(now, false)
	}
	after := now.Add(3 * time.Second) // past cooldown
	if !b.allow(after) {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.current())
	}
	// Only one probe at a time.
	if b.allow(after) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.record(after, true)
	if b.current() != breakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if !b.allow(after) {
		t.Fatal("closed breaker refused a request after recovery")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		b.record(now, false)
	}
	after := now.Add(3 * time.Second)
	if !b.allow(after) {
		t.Fatal("no half-open probe")
	}
	b.record(after, false)
	if b.current() != breakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	// The cooldown restarts from the failed probe.
	if b.allow(after.Add(time.Second)) {
		t.Fatal("reopened breaker admitted a request inside the fresh cooldown")
	}
	if !b.allow(after.Add(3 * time.Second)) {
		t.Fatal("reopened breaker never re-admitted")
	}
}

func TestBreakerWindowReset(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	// Three failures, then the window rolls over: old counts are gone,
	// so three more failures in the new window still stay under
	// minSamples+threshold until the 4th.
	for i := 0; i < 3; i++ {
		b.record(now, false)
	}
	later := now.Add(6 * time.Second)
	for i := 0; i < 3; i++ {
		b.record(later, false)
	}
	if b.current() != breakerClosed {
		t.Fatal("stale window counts leaked into the new window")
	}
}

func TestBreakerHealthyTrafficStaysClosed(t *testing.T) {
	b := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		ok := i%5 != 0 // 20% failures, under the 50% threshold
		b.record(now.Add(time.Duration(i)*time.Millisecond), ok)
	}
	if b.current() != breakerClosed {
		t.Fatal("breaker opened under sub-threshold error rate")
	}
}

// TestLatencyTrackerP95: the hedge delay is the p95 of the router's
// latency window, hedgeMax while the window holds fewer than 8 samples,
// and clamped up to hedgeMin.
func TestLatencyTrackerP95(t *testing.T) {
	min, max := hedgeMin, hedgeMax
	mk := func() *Router {
		rt, err := New(Config{}, &fakeBackend{id: "a"})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := mk()
	// Cold window: no evidence, hedge waits the max.
	if got := rt.hedgeDelay(); got != max {
		t.Fatalf("cold p95 = %v, want %v", got, max)
	}
	for i := 0; i < 100; i++ {
		rt.lat.Add(time.Duration(i+1) * time.Millisecond)
	}
	if got := rt.hedgeDelay(); got != 95*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want 95ms", got)
	}
	// Clamping: a uniformly fast window clamps up to min.
	fast := mk()
	for i := 0; i < 50; i++ {
		fast.lat.Add(time.Microsecond)
	}
	if got := fast.hedgeDelay(); got != min {
		t.Fatalf("fast p95 = %v, want clamp to %v", got, min)
	}
}

// TestLatencyTrackerP95Exact holds the hedge delay to a copy-and-sort
// of the router's window, on random windows from empty through partly
// filled to wrapped, and to computing it without allocating. The rule
// is the former index ⌊0.95·n⌋ except where 20 divides n, where nearest
// rank takes the sample one lower.
func TestLatencyTrackerP95Exact(t *testing.T) {
	min, max := hedgeMin, hedgeMax
	rng := rand.New(rand.NewSource(1))
	for _, fill := range []int{0, 7, 8, 9, 20, 100, 255, 256, 257, 1000} {
		rt, err := New(Config{}, &fakeBackend{id: "a"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fill; i++ {
			rt.lat.Add(time.Duration(rng.Int63n(int64(2 * hedgeMax))))
		}
		want := max
		if ref := rt.lat.Snapshot(nil); len(ref) >= 8 {
			n := len(ref)
			sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
			idx := (n * 95) / 100
			if n%20 == 0 {
				idx--
			}
			want = ref[idx]
			if want < min {
				want = min
			} else if want > max {
				want = max
			}
		}
		if got := rt.hedgeDelay(); got != want {
			t.Errorf("fill %d: hedge delay = %v, want %v", fill, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { rt.hedgeDelay() }); allocs != 0 {
			t.Errorf("fill %d: hedgeDelay allocates %v times", fill, allocs)
		}
	}
}
