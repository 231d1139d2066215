package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// latP99 is the flight recorder's former slow-solve baseline rule: the
// ⌈0.99·n⌉-th smallest of the window.
func latP99(window []time.Duration) time.Duration {
	ref := sortedCopy(window)
	idx := (99*len(ref) + 99) / 100
	if idx > len(ref) {
		idx = len(ref)
	}
	return ref[idx-1]
}

// oldP95 is the router's former hedge-delay rule: index ⌊0.95·n⌋ of
// the sorted window.
func oldP95(window []time.Duration) time.Duration {
	ref := sortedCopy(window)
	return ref[(len(ref)*95)/100]
}

func sortedCopy(window []time.Duration) []time.Duration {
	ref := append([]time.Duration(nil), window...)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	return ref
}

// checkQuantiles holds Quantile to the two rules it replaced: p99 is
// latP99 exactly; p95 is the old rule except where 20 divides n, where
// nearest rank is one sample lower.
func checkQuantiles(t *testing.T, label string, r *Ring[time.Duration]) {
	t.Helper()
	window := r.Snapshot(nil)
	n := len(window)
	q99, n99 := Quantile(r, 99)
	q95, n95 := Quantile(r, 95)
	if n99 != n || n95 != n {
		t.Fatalf("%s: Quantile reports n = %d/%d, window holds %d", label, n99, n95, n)
	}
	if n == 0 {
		if q99 != 0 || q95 != 0 {
			t.Fatalf("%s: empty window quantiles %v/%v, want 0", label, q99, q95)
		}
		return
	}
	if want := latP99(window); q99 != want {
		t.Fatalf("%s: Quantile(99) = %v, latP99 = %v", label, q99, want)
	}
	want := oldP95(window)
	if n%20 == 0 {
		want = sortedCopy(window)[(n*95)/100-1]
	}
	if q95 != want {
		t.Fatalf("%s: Quantile(95) = %v, want %v (old rule %v)", label, q95, want, oldP95(window))
	}
}

// TestQuantile holds the shared nearest-rank quantile to the flight
// recorder's latP99 and the router's former p95 on the windows their
// own tests used, at every window size up to 600, and to sorting the
// window sizes in use (256 and 512) without allocating.
func TestQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := func() time.Duration { return time.Duration(rng.Int63n(int64(time.Second))) }

	// The flight recorder's windows: partly filled and full.
	for _, c := range []struct{ window, n int }{
		{512, 1}, {512, 31}, {512, 32}, {512, 300}, {512, 511}, {512, 512}, {600, 17}, {600, 600},
	} {
		r := NewRing[time.Duration](c.window)
		for i := 0; i < c.n; i++ {
			r.Add(sample())
		}
		checkQuantiles(t, "latP99 window", r)
	}
	// The router's fills of its 256-sample window: empty through
	// wrapped.
	for _, fill := range []int{0, 7, 8, 9, 20, 100, 255, 256, 257, 1000} {
		r := NewRing[time.Duration](256)
		for i := 0; i < fill; i++ {
			r.Add(sample())
		}
		checkQuantiles(t, "p95 fill", r)
	}
	// Every size: one window grown a sample at a time, with repeated
	// values so ties are exercised too.
	r := NewRing[time.Duration](600)
	for n := 1; n <= 600; n++ {
		r.Add(time.Duration(rng.Intn(50)) * time.Millisecond)
		checkQuantiles(t, "sweep", r)
	}

	for _, size := range []int{256, 512} {
		r := NewRing[time.Duration](size)
		for i := 0; i < size+size/2; i++ {
			r.Add(sample())
		}
		if allocs := testing.AllocsPerRun(20, func() { Quantile(r, 95) }); allocs != 0 {
			t.Errorf("window %d: Quantile allocates %v times", size, allocs)
		}
	}
}
