package flight

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pesto/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRingWrapsOldestFirst: the recorder's ring keeps the newest
// ringSize records, oldest first, and counts every record.
func TestRingWrapsOldestFirst(t *testing.T) {
	r := New(Config{})
	for i := 0; i < ringSize+2; i++ {
		r.Record(obs.Record{Kind: obs.KindPoint, Name: fmt.Sprintf("p%d", i)})
	}
	snap := r.Ring().Snapshot(nil)
	if len(snap) != ringSize {
		t.Fatalf("len = %d, want %d", len(snap), ringSize)
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("p%d", i+2); rec.Name != want {
			t.Fatalf("snap[%d] = %q, want %q", i, rec.Name, want)
		}
	}
	if got := r.Ring().Total(); got != ringSize+2 {
		t.Fatalf("Total = %d, want %d", got, ringSize+2)
	}
}

// TestRingConcurrent races writers against snapshots; the race
// detector is the assertion.
func TestRingConcurrent(t *testing.T) {
	r := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ringSize; i++ {
				r.Record(obs.Record{Kind: obs.KindPoint, Name: "w", Ts: time.Duration(w*1000 + i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Ring().Snapshot(nil)
			if len(snap) > ringSize {
				t.Errorf("snapshot overflow: %d", len(snap))
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Ring().Total(); got != 8*ringSize {
		t.Fatalf("Total = %d, want %d", got, 8*ringSize)
	}
}

func TestSlowSolveBaseline(t *testing.T) {
	r := New(Config{MinSamples: 8, SlowFactor: 1.5, SlowFloor: time.Millisecond})
	// Arming: the first MinSamples never trigger.
	for i := 0; i < 8; i++ {
		if slow, _ := r.SlowSolve(10 * time.Millisecond); slow {
			t.Fatalf("triggered while arming at sample %d", i)
		}
	}
	// Inside baseline: 10ms against a 10ms p99 is not slow.
	if slow, p99 := r.SlowSolve(10 * time.Millisecond); slow || p99 != 10*time.Millisecond {
		t.Fatalf("slow=%v p99=%v, want false and 10ms", slow, p99)
	}
	// An outlier well past factor*p99 triggers.
	slow, p99 := r.SlowSolve(100 * time.Millisecond)
	if !slow || p99 != 10*time.Millisecond {
		t.Fatalf("outlier: slow=%v p99=%v, want true and 10ms", slow, p99)
	}
	// Check-then-record: the outlier is in the window now, but one
	// sample out of ten only moves the p99 to the outlier itself, so an
	// equal repeat no longer triggers (it cannot beat 1.5x itself).
	if slow, _ := r.SlowSolve(100 * time.Millisecond); slow {
		t.Fatalf("repeat of the outlier triggered against itself")
	}
}

func TestSlowSolveFloor(t *testing.T) {
	r := New(Config{MinSamples: 4, SlowFloor: 25 * time.Millisecond})
	for i := 0; i < 8; i++ {
		r.SlowSolve(10 * time.Microsecond)
	}
	// 60x the baseline but under the floor: cache-adjacent noise.
	if slow, _ := r.SlowSolve(600 * time.Microsecond); slow {
		t.Fatalf("sub-floor outlier triggered")
	}
}

func TestCaptureWritesBundle(t *testing.T) {
	dir := t.TempDir()
	clock := func() time.Time { return time.Unix(1754550000, 123) }
	r := New(Config{Dir: dir, Clock: clock})
	r.Record(obs.Record{Kind: obs.KindSpan, Name: "solve", Ts: 10, Dur: 20, ID: 1})
	b, path, err := r.Capture(Bundle{Trigger: "slow-solve", RequestID: "rid1", Stage: "ilp-exact"})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if b.Schema != Schema || b.CapturedAtNs != clock().UnixNano() {
		t.Fatalf("bundle not stamped: %+v", b)
	}
	if len(b.Spans) != 1 || b.Spans[0].Name != "solve" {
		t.Fatalf("ring spans not folded in: %+v", b.Spans)
	}
	want := filepath.Join(dir, "bundle-000000-slow-solve.json")
	if path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	got, err := ReadBundleFile(path)
	if err != nil {
		t.Fatalf("ReadBundleFile: %v", err)
	}
	if got.Trigger != "slow-solve" || got.RequestID != "rid1" || got.Stage != "ilp-exact" {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestCaptureMaxBundles(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Dir: dir, MaxBundles: 2, Clock: func() time.Time { return time.Unix(0, 0) }})
	paths := 0
	for i := 0; i < 5; i++ {
		_, p, err := r.Capture(Bundle{Trigger: "degraded-fallback", Spans: []obs.SpanRecord{}})
		if err != nil {
			t.Fatalf("Capture %d: %v", i, err)
		}
		if p != "" {
			paths++
		}
	}
	if paths != 2 {
		t.Fatalf("wrote %d files, want 2", paths)
	}
	captured, dropped, _ := r.Stats()
	if captured != 5 || dropped != 3 {
		t.Fatalf("captured=%d dropped=%d, want 5 and 3", captured, dropped)
	}
}

func TestReadBundleFileRejectsSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	os.WriteFile(path, []byte(`{"schema":"pesto/flight-bundle/v0","trigger":"x"}`), 0o644)
	if _, err := ReadBundleFile(path); err == nil {
		t.Fatalf("v0 schema accepted")
	}
}

// TestCaptureNoGoroutineLeak storms the trigger path and checks the
// recorder spawned nothing: capture is synchronous by design.
func TestCaptureNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	r := New(Config{Clock: func() time.Time { return time.Unix(0, 0) }})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.SlowSolve(time.Duration(i) * time.Millisecond)
				r.Capture(Bundle{Trigger: "slow-solve", Spans: []obs.SpanRecord{}})
			}
		}()
	}
	wg.Wait()
	// Allow the test's own worker goroutines to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after trigger storm", before, runtime.NumGoroutine())
}

// TestBundleGolden pins the bundle JSON schema byte-for-byte.
func TestBundleGolden(t *testing.T) {
	clock := func() time.Time { return time.Unix(1754550000, 0) }
	r := New(Config{Dir: t.TempDir(), Clock: clock})
	b := Bundle{
		Trigger:       "slow-solve",
		Detail:        "solve 120ms vs p99 40ms",
		RequestID:     "deadbeef01234567.h0",
		TraceID:       "deadbeef01234567",
		Fingerprint:   "a1b2c3",
		Stage:         "ilp-exact",
		Seed:          42,
		SolveNs:       120_000_000,
		BaselineP99Ns: 40_000_000,
		Graph:         json.RawMessage(`{"nodes":[]}`),
		Options:       json.RawMessage(`{"seed":42}`),
		Response:      json.RawMessage(`{"stage":"ilp-exact"}`),
		Spans: []obs.SpanRecord{
			{Kind: "span", Name: "solve", TsNs: 1000, DurNs: 2000, Span: 1, Attrs: map[string]string{"stage": "ilp-exact"}},
			{Kind: "sample", Name: "counter.lp.pivots", TsNs: 3000, Value: 17},
		},
		Counters:   map[string]int64{"lp.pivots": 17},
		Replayable: true,
	}
	_, path, err := r.Capture(b)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	golden := filepath.Join("testdata", "bundle_schema.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bundle schema drifted from golden; run with -update if intentional.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLatP99Exact holds the slow-solve baseline to the ⌈0.99·n⌉-th
// smallest of a copy-and-sort of the window, on random windows partly
// filled and full, and to computing it without allocating.
func TestLatP99Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 31, 32, 300, baselineWindow - 1, baselineWindow} {
		r := New(Config{MinSamples: 1})
		ref := make([]time.Duration, n)
		for i := range ref {
			ref[i] = time.Duration(rng.Int63n(int64(time.Second)))
			r.lat.Add(ref[i])
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		idx := (99*n + 99) / 100
		if idx > n {
			idx = n
		}
		if _, got := r.SlowSolve(0); got != ref[idx-1] {
			t.Errorf("n %d: p99 = %v, want %v", n, got, ref[idx-1])
		}
		if allocs := testing.AllocsPerRun(20, func() { obs.Quantile(r.lat, 99) }); allocs != 0 {
			t.Errorf("n %d: baseline allocates %v times", n, allocs)
		}
	}
}
