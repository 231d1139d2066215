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

func TestLatencyTrackerP95(t *testing.T) {
	var lt latencyTracker
	min, max := 10*time.Millisecond, time.Second
	// Cold tracker: no evidence, hedge waits the max.
	if got := lt.p95(min, max); got != max {
		t.Fatalf("cold p95 = %v, want %v", got, max)
	}
	for i := 0; i < 100; i++ {
		lt.observe(time.Duration(i+1) * time.Millisecond)
	}
	got := lt.p95(min, max)
	if got < 90*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("p95 of 1..100ms = %v, want ~95ms", got)
	}
	// Clamping: a uniformly fast window clamps up to min.
	var fast latencyTracker
	for i := 0; i < 50; i++ {
		fast.observe(time.Microsecond)
	}
	if got := fast.p95(min, max); got != min {
		t.Fatalf("fast p95 = %v, want clamp to %v", got, min)
	}
}

// TestLatencyTrackerP95Exact holds p95 to the copy-and-sort it
// replaced, on random windows from empty through partly filled to
// wrapped, and to sorting without allocating.
func TestLatencyTrackerP95Exact(t *testing.T) {
	min, max := 10*time.Millisecond, 900*time.Millisecond
	rng := rand.New(rand.NewSource(1))
	for _, fill := range []int{0, 7, 8, 9, 20, 100, 255, 256, 257, 1000} {
		var lt latencyTracker
		for i := 0; i < fill; i++ {
			lt.observe(time.Duration(rng.Int63n(int64(time.Second))))
		}
		want := max
		if n := lt.n; n >= 8 {
			ref := append([]time.Duration(nil), lt.samples[:n]...)
			sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
			want = ref[(n*95)/100]
			if want < min {
				want = min
			} else if want > max {
				want = max
			}
		}
		if got := lt.p95(min, max); got != want {
			t.Errorf("fill %d: p95 = %v, want %v", fill, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { lt.p95(min, max) }); allocs != 0 {
			t.Errorf("fill %d: p95 allocates %v times", fill, allocs)
		}
	}
}
