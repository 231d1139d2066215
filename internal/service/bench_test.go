package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pesto/internal/gen"
)

// benchGraphBody builds a request body big enough that a cold solve is
// real work: a layered graph, with the budget selecting the rung
// (500ms → refine, 2500ms → exact ILP).
func benchGraphBody(tb testing.TB, budgetMs int64) []byte {
	tb.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 96})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: budgetMs}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func benchPost(tb testing.TB, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	data := readAllB(tb, resp)
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	return resp, data
}

func readAllB(tb testing.TB, resp *http.Response) []byte {
	tb.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// zipfBodies are the request bodies of the serving benchmark's corpus:
// 128 graphs of 8 to 63 operations drawn by gen.NewTrace at seed 7, at
// budgetMs 150.
func zipfBodies(tb testing.TB) [][]byte {
	tb.Helper()
	tr, err := gen.NewTrace(gen.TraceConfig{Corpus: 128, Requests: 1, Skew: 1.2, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, len(tr.Configs))
	for i, cfg := range tr.Configs {
		g, err := gen.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if bodies[i], err = json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: 150}}); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkDecodePlaceRequest measures one request decode, cycling
// through the serving corpus.
func BenchmarkDecodePlaceRequest(b *testing.B) {
	bodies := zipfBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePlaceRequest(bytes.NewReader(bodies[i%len(bodies)]), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceCacheHit measures the full HTTP round-trip of a
// cache hit: decode, fingerprint, lookup, replay.
func BenchmarkServiceCacheHit(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())
	body := benchGraphBody(b, 2500)
	benchPost(b, ts, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := benchPost(b, ts, body)
		if resp.Header.Get("X-Pesto-Cache") != "hit" {
			b.Fatal("benchmark request missed the cache")
		}
	}
}

// BenchmarkServiceColdSolve measures the uncached solve path
// (NoCache: true) for the same graph and budget.
func BenchmarkServiceColdSolve(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 96})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: 2500, NoCache: true}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts, body)
	}
}

// TestCacheHitSpeedup is the acceptance bound: serving a cached plan
// must be at least 100x faster than solving it cold.
func TestCacheHitSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())
	// The exact-ILP rung is the production default (generous budgets);
	// it is also what makes a cold solve expensive enough that the
	// 100x bound is meaningful rather than a timing accident.
	body := benchGraphBody(t, 2500)

	coldStart := time.Now()
	resp, _ := benchPost(t, ts, body)
	cold := time.Since(coldStart)
	if resp.Header.Get("X-Pesto-Cache") != "miss" {
		t.Fatal("first request did not miss")
	}

	const hits = 50
	hitStart := time.Now()
	for i := 0; i < hits; i++ {
		resp, _ := benchPost(t, ts, body)
		if resp.Header.Get("X-Pesto-Cache") != "hit" {
			t.Fatal("request missed after warm-up")
		}
	}
	hit := time.Since(hitStart) / hits

	if hit <= 0 {
		t.Fatalf("implausible hit latency %v", hit)
	}
	speedup := float64(cold) / float64(hit)
	t.Logf("cold=%v hit=%v speedup=%.0fx", cold, hit, speedup)
	if speedup < 100 {
		t.Fatalf("cache hit speedup %.1fx < 100x (cold %v, hit %v)", speedup, cold, hit)
	}
}
