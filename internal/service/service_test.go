package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"pesto/internal/gen"
)

// testBody serializes one solve request for the generated graph.
func testBody(t *testing.T, seed int64, opts RequestOptions) []byte {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Diamond, Seed: seed, Nodes: 16})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	body, err := json.Marshal(PlaceRequest{Graph: g, Options: opts})
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return body
}

// fastOptions keeps test solves on the heuristic rung (milliseconds,
// not ILP seconds).
func fastOptions() RequestOptions { return RequestOptions{BudgetMs: 50} }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return data
}

func TestPlaceEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := testBody(t, 1, fastOptions())

	resp := post(t, ts.URL+"/v1/place", body)
	first := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Pesto-Cache"); got != "miss" {
		t.Fatalf("first request X-Pesto-Cache = %q, want miss", got)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(first, &pr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !pr.Verified {
		t.Fatal("response not verified")
	}
	if pr.MakespanNs <= 0 {
		t.Fatalf("non-positive makespan %d", pr.MakespanNs)
	}
	if len(pr.Fingerprint) != 64 || len(pr.CacheKey) != 64 {
		t.Fatalf("bad content addresses: fp=%q key=%q", pr.Fingerprint, pr.CacheKey)
	}

	// The identical request must be a cache hit with a byte-identical
	// body.
	resp = post(t, ts.URL+"/v1/place", body)
	second := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Pesto-Cache"); got != "hit" {
		t.Fatalf("repeat X-Pesto-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat response differs:\n%s\nvs\n%s", first, second)
	}
	if fills, _, _ := s.CacheStats(); fills != 1 {
		t.Fatalf("fills = %d, want 1", fills)
	}
}

func TestPlaceDistinctOptionsDistinctKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := testBody(t, 1, RequestOptions{BudgetMs: 50, GPUs: 2})
	b := testBody(t, 1, RequestOptions{BudgetMs: 50, GPUs: 4})
	var keys [2]string
	for i, body := range [][]byte{a, b} {
		resp := post(t, ts.URL+"/v1/place", body)
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var pr PlaceResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		keys[i] = pr.CacheKey
		if keys[i] == "" {
			t.Fatal("empty cache key")
		}
	}
	if keys[0] == keys[1] {
		t.Fatalf("same cache key %s for different GPU counts", keys[0])
	}
}

func TestPlaceBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"malformed":     `{"graph": [`,
		"unknown field": `{"graph": null, "bogus": 1}`,
		"missing graph": `{"options": {}}`,
		"trailing":      `{"options": {}} trailing`,
		"trailing ]}":   `{"graph":{"nodes":[{"id":0,"kind":2,"costNanos":10}],"edges":[]}}]]]}`,
		"empty body":    ``,
		"bad options":   `{"graph":{"nodes":[{"id":0,"kind":"gpu","costNanos":10}],"edges":[]},"options":{"gpus":1}}`,
	}
	for name, body := range cases {
		resp := post(t, ts.URL+"/v1/place", []byte(body))
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, resp.StatusCode, data)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not ErrorResponse (%v)", name, data, err)
		}
	}
}

func TestPlaceTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	resp := post(t, ts.URL+"/v1/place", testBody(t, 1, fastOptions()))
	readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}

	_, ts = newTestServer(t, Config{MaxGraphNodes: 3})
	resp = post(t, ts.URL+"/v1/place", testBody(t, 1, fastOptions()))
	readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize graph: status %d, want 413", resp.StatusCode)
	}
}

// TestReadBody holds ReadBody to one answer per body whatever size it
// is told: exact, low, high, over the limit or unknown. A body at the
// limit or empty reads whole; one byte more is a 413 and a body that
// ends early a 400, each with its message.
func TestReadBody(t *testing.T) {
	const limit = 16
	for _, c := range []struct {
		name  string
		body  string
		short bool // the reader fails with io.ErrUnexpectedEOF after body
		want  string
	}{
		{"at the limit", strings.Repeat("x", limit), false, ""},
		{"empty", "", false, ""},
		{"over the limit", strings.Repeat("x", limit+1), false, "body over 16 bytes: request too large"},
		{"short", `{"gr`, true, "read body: unexpected EOF: bad request"},
	} {
		for _, size := range []int64{-1, 0, 3, int64(len(c.body)), int64(len(c.body)) + 5, limit, limit + 1, 1 << 40} {
			var r io.Reader = strings.NewReader(c.body)
			if c.short {
				r = io.MultiReader(r, iotest.ErrReader(io.ErrUnexpectedEOF))
			}
			data, err := ReadBody(r, size, limit)
			switch {
			case c.want == "" && (err != nil || string(data) != c.body):
				t.Errorf("%s, size %d: read %q, %v; want the body", c.name, size, data, err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("%s, size %d: error %v, want %q", c.name, size, err, c.want)
			}
		}
	}
}

// offerProbe is a body that sends a few bytes and then fails, as a
// client that declared a length and stopped sending does; it records
// the largest buffer ReadBody offered it.
type offerProbe struct {
	body    []byte
	largest int
}

func (p *offerProbe) Read(b []byte) (int, error) {
	p.largest = max(p.largest, len(b))
	if len(p.body) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(b, p.body)
	p.body = p.body[n:]
	return n, nil
}

// TestReadBodyCapsPrealloc holds what a declared length allocates
// before its bytes arrive to bodyPrealloc: a body that declares the
// full 32 MiB and sends ten bytes costs kilobytes, not the declared
// size, and is still a 400.
func TestReadBodyCapsPrealloc(t *testing.T) {
	const runs = 8
	var largest int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		p := &offerProbe{body: []byte(`{"graph":{`)}
		if _, err := ReadBody(p, maxBodyBytes, 0); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("short body: error %v, want a bad request", err)
		}
		largest = max(largest, p.largest)
	}
	runtime.ReadMemStats(&after)
	if largest > bodyPrealloc+bytes.MinRead {
		t.Errorf("ReadBody offered a %d-byte buffer before the body arrived; want at most %d", largest, bodyPrealloc+bytes.MinRead)
	}
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1<<20 {
		t.Errorf("a stalled 32 MiB declaration allocated %d bytes; want under 1 MiB", perRun)
	}
}

func TestPlaceSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentSolves: 1, QueueDepth: -1})
	// Occupy the only solver slot so the request cannot run, with an
	// empty queue so it cannot wait either.
	s.admit.slots <- struct{}{}
	defer func() { <-s.admit.slots }()

	body := testBody(t, 1, RequestOptions{BudgetMs: 50, NoCache: true})
	resp := post(t, ts.URL+"/v1/place", body)
	readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestPlaceQueueTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentSolves: 1, QueueDepth: 4})
	s.admit.slots <- struct{}{}
	defer func() { <-s.admit.slots }()

	body := testBody(t, 1, RequestOptions{BudgetMs: 50, NoCache: true})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/place", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		// The client may give up before the server writes the 503; the
		// server-side outcome is still what we want to check, but a
		// transport error here is acceptable behavior too.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected transport error: %v", err)
		}
		return
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestDrainRejectsAndHealthTurns503(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp := post(t, ts.URL+"/v1/place", testBody(t, 1, fastOptions()))
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("place while draining: status %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, hr)
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hr.StatusCode)
	}
	if !strings.Contains(string(data), "draining") {
		t.Fatalf("healthz body %s does not report draining", data)
	}
}

func TestDrainDeadlineCancelsSolves(t *testing.T) {
	s := New(Config{})
	// Simulate one stuck in-flight solve.
	endSolve, err := s.beginSolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Drain(ctx) }()
	// The hard stop cancels baseCtx; the "solve" observes it and exits.
	go func() {
		<-s.baseCtx.Done()
		endSolve()
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain error %v, want deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("healthz not JSON: %v (%s)", err, data)
	}
	if h["status"] != "ok" {
		t.Fatalf("status %v, want ok", h["status"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate some traffic first.
	post(t, ts.URL+"/v1/place", testBody(t, 1, fastOptions())).Body.Close()
	post(t, ts.URL+"/v1/place", testBody(t, 1, fastOptions())).Body.Close()
	post(t, ts.URL+"/v1/place", []byte("{")).Body.Close()

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		return string(readAll(t, resp))
	}
	text := scrape()
	for _, want := range []string{
		`pestod_requests_total{endpoint="place",outcome="ok"} 2`,
		`pestod_requests_total{endpoint="place",outcome="bad_request"} 1`,
		`pestod_cache_events_total{event="hit"} 1`,
		`pestod_cache_events_total{event="miss"} 1`,
		"pestod_plans_total{stage=",
		"pestod_queue_depth 0",
		"pestod_inflight_solves 0",
		"pestod_cache_entries 1",
		`pestod_solve_duration_seconds_bucket{stage="heuristic-fallback",le="+Inf"} 1`,
		`pestod_solve_duration_seconds_count{stage="heuristic-fallback"} 1`,
		"pestod_bnb_nodes_total",
		"pestod_lp_pivots_total",
		"pestod_incumbent_improvements_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// An idle server scrapes byte-identically.
	if again := scrape(); again != text {
		t.Fatalf("idle scrapes differ:\n%s\nvs\n%s", text, again)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := testBody(t, 1, fastOptions())
	resp := post(t, ts.URL+"/v1/trace", body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// The trace request shares the plan cache with /v1/place.
	resp = post(t, ts.URL+"/v1/place", body)
	readAll(t, resp)
	if got := resp.Header.Get("X-Pesto-Cache"); got != "hit" {
		t.Fatalf("place after trace X-Pesto-Cache = %q, want hit", got)
	}
}

func TestWarmFromDir(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		g, err := gen.Generate(gen.Config{Family: gen.Chain, Seed: int64(i + 1), Nodes: 8})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("g%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-graph file must abort the warm-up with an error.
	s, ts := newTestServer(t, Config{DefaultBudget: 50 * time.Millisecond})
	warmed, err := s.WarmFromDir(context.Background(), dir)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warmed != 3 {
		t.Fatalf("warmed %d, want 3", warmed)
	}
	if _, _, entries := s.CacheStats(); entries != 3 {
		t.Fatalf("cache entries %d, want 3", entries)
	}
	// A request for a warmed graph hits immediately.
	g, err := gen.Generate(gen.Config{Family: gen.Chain, Seed: 1, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/place", body)
	readAll(t, resp)
	if got := resp.Header.Get("X-Pesto-Cache"); got != "hit" {
		t.Fatalf("warmed graph X-Pesto-Cache = %q, want hit", got)
	}

	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not a graph"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WarmFromDir(context.Background(), dir); err == nil {
		t.Fatal("warm over junk succeeded")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/place")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/place: status %d, want 405", resp.StatusCode)
	}
}

// TestPlacePipelineRequest drives the microbatched pipeline regime
// through the HTTP surface: the response carries the pipeline
// provenance, the plan stage is the pipeline rung, the cache key is
// sensitive to the pipeline options, and the pipeline metrics appear
// in the exposition.
func TestPlacePipelineRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g, err := gen.Generate(gen.PipelineConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(opts RequestOptions) []byte {
		body, err := json.Marshal(PlaceRequest{Graph: g, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	plain := mk(RequestOptions{BudgetMs: 500})
	piped := mk(RequestOptions{BudgetMs: 500, PipelineMicrobatches: 4, PipelineSchedule: "gpipe"})

	resp := post(t, ts.URL+"/v1/place", piped)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Stage != "pipeline-dp" || pr.Degraded {
		t.Fatalf("stage = %q degraded = %v, want pipeline-dp un-degraded", pr.Stage, pr.Degraded)
	}
	if pr.Pipeline == nil || pr.Pipeline.Microbatches != 4 || pr.Pipeline.Schedule != "gpipe" {
		t.Fatalf("pipeline provenance = %+v", pr.Pipeline)
	}
	if pr.Pipeline.Bubble < 0 || pr.Pipeline.Bubble >= 1 {
		t.Fatalf("bubble = %g", pr.Pipeline.Bubble)
	}

	// A plain request for the same graph gets its own cache entry and
	// no pipeline provenance.
	resp = post(t, ts.URL+"/v1/place", plain)
	data = readAll(t, resp)
	var plainPr PlaceResponse
	if err := json.Unmarshal(data, &plainPr); err != nil {
		t.Fatal(err)
	}
	if plainPr.CacheKey == pr.CacheKey {
		t.Fatal("pipeline options not folded into the cache key")
	}
	if plainPr.Pipeline != nil {
		t.Fatal("single-shot response carries pipeline provenance")
	}

	// Schedule aliases normalize onto one cache key.
	resp = post(t, ts.URL+"/v1/place", mk(RequestOptions{BudgetMs: 500, PipelineMicrobatches: 4, PipelineSchedule: "fill-drain"}))
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alias status %d: %s", resp.StatusCode, data)
	}
	var aliasPr PlaceResponse
	if err := json.Unmarshal(data, &aliasPr); err != nil {
		t.Fatal(err)
	}
	if aliasPr.CacheKey != pr.CacheKey {
		t.Fatal("fill-drain and gpipe landed on different cache keys")
	}

	// Invalid pipeline options are 400s.
	for name, opts := range map[string]RequestOptions{
		"schedule-without-mb": {BudgetMs: 500, PipelineSchedule: "gpipe"},
		"negative-mb":         {BudgetMs: 500, PipelineMicrobatches: -1},
		"unknown-schedule":    {BudgetMs: 500, PipelineMicrobatches: 4, PipelineSchedule: "zigzag"},
	} {
		resp := post(t, ts.URL+"/v1/place", mk(opts))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, body)
		}
	}

	// The pipeline metrics surfaced.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met := string(readAll(t, mresp))
	if !strings.Contains(met, `pestod_pipeline_plans_total{schedule="gpipe"} 1`) {
		t.Errorf("pipeline plan counter missing from exposition:\n%s", met)
	}
	if !strings.Contains(met, "pestod_pipeline_bubble_fraction_count 1") {
		t.Errorf("bubble summary missing from exposition")
	}
	_ = s
}
