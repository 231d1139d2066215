package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pesto/internal/obs"
)

// TestMetricsGoldenBusy pins a populated scrape byte-for-byte. Fixed
// inputs drive every family through the record methods the handlers
// use, so the golden exercises what the idle scrape cannot: bucket
// boundaries (first bucket, exactly on 0.025, a middle bucket, past
// 30 s), float formatting of sums and rates, every label set, an SLO
// fast-burn episode on a fake clock and the flight counters.
// Regenerate with -update.
func TestMetricsGoldenBusy(t *testing.T) {
	s := New(Config{FlightDir: t.TempDir(), FlightMaxBundles: 1})
	clk := newFakeClock()
	s.slo.clock = clk.Now
	m := s.met

	outcomes := []string{"ok", "bad_request", "too_large", "unknown_base", "saturated",
		"queue_timeout", "draining", "cancelled", "unprocessable", "error"}
	for i, ep := range []string{"place", "trace", "delta", "cache_export", "cache_import"} {
		for j, oc := range outcomes {
			for k := 0; k <= (i+j)%3; k++ {
				m.request(ep, oc)
			}
		}
	}
	for ev, n := range map[string]int{"hit": 5, "miss": 3} {
		for k := 0; k < n; k++ {
			m.cacheEvent(ev)
		}
	}
	m.cacheEvictions = func() int64 { return 1 } // the plan cache's count, read at scrape time
	for _, st := range []string{"ilp-exact", "warm-start+refine", "warm-start+refine", "heuristic-fallback", "pipeline-dp"} {
		m.planServed(st)
	}
	for _, o := range []struct {
		d     time.Duration
		stage string
	}{
		{500 * time.Microsecond, "heuristic-fallback"}, // first bucket
		{25 * time.Millisecond, "heuristic-fallback"},  // exactly on the 0.025 bound
		{40 * time.Millisecond, "warm-start+refine"},   // a middle bucket
		{700 * time.Millisecond, "warm-start+refine"},
		{12 * time.Second, "ilp-exact"},
		{31 * time.Second, "ilp-exact"}, // past 30 s: +Inf only
		{time.Millisecond, "error"},
	} {
		m.observeSolve(o.d, o.stage)
	}
	m.incremental("warm", 3, 10)
	m.incremental("warm", 1, 8)
	m.incremental("cold", 12, 12)
	m.incremental("near-hit", 0, 0)
	m.pipelinePlanServed("1f1b", 2, 0.1)
	m.pipelinePlanServed("gpipe", 3, 0.2) // bubble sum 0.1+0.2 is not 0.3

	// Solver progress and flight-ring records through one request's
	// telemetry scope.
	ctx, _, finish := s.beginTelemetry(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/place", nil), "place")
	rec := obs.From(ctx)
	for name, n := range map[string]int64{"ilp.nodes": 120, "lp.pivots": 4500, "ilp.incumbents": 7,
		"lp.solves": 60, "lp.warmstart.hits": 40, "lp.warmstart.misses": 3} {
		rec.Add(name, n)
	}
	rec.Point("busy.point")
	finish("ok")

	// An availability fast-burn episode: two 5xx among 100 events burn
	// both windows past 14.4x and capture a bundle; six minutes of good
	// traffic later the 5m window has cleared while the 1h one still
	// burns. A latency objective then burns too; its bundle file is over
	// the one-file cap and is counted as dropped.
	for k := 0; k < 98; k++ {
		s.slo.observe("availability", false)
	}
	s.slo.observe("availability", true)
	s.slo.observe("availability", true)
	clk.advance(6 * time.Minute)
	for k := 0; k < 10; k++ {
		s.slo.observe("availability", false)
	}
	s.slo.observeLatency("ilp-exact", 5*time.Second)
	s.slo.observeLatency("ilp-exact", 31*time.Second)
	s.slo.observeLatency("heuristic-fallback", 50*time.Millisecond)
	s.slo.observeLatency("warm-start+refine", 3*time.Second)
	for k := 0; k < 3; k++ {
		s.slo.observeLatency("warm-start+refine", time.Second)
	}

	var buf bytes.Buffer
	m.write(&buf)
	golden := filepath.Join("testdata", "metrics_busy.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("busy metrics exposition changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
