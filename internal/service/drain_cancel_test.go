package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pesto/internal/gen"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, deadline time.Duration, cond func() bool, what string) {
	t.Helper()
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDrainFlipMidRequestConsistent503 flips drain while requests are
// in flight, under -race. beginSolve is the single drain gate: every
// request either completes 200 (it registered before the flip and
// Drain waits for it) or takes the one consistent 503 "draining" path
// — there is no window where a request slips past a handler-level
// check and then dies somewhere else.
func TestDrainFlipMidRequestConsistent503(t *testing.T) {
	s2 := New(Config{MaxConcurrentSolves: 2, QueueDepth: 64})
	ts2 := newHTTPServer(t, s2)

	const clients = 16
	bodies := make([][]byte, clients)
	for i := range bodies {
		// Distinct graphs: every request is a cache miss, so every
		// request crosses the solve gate.
		bodies[i] = testBody(t, int64(i+1), fastOptions())
	}

	var wg sync.WaitGroup
	results := make([]int, clients)
	bodiesOut := make([][]byte, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp := post(t, ts2.URL+"/v1/place", bodies[i])
			bodiesOut[i] = readAll(t, resp)
			results[i] = resp.StatusCode
		}(i)
	}
	close(start)
	// Flip drain while the requests race through the gate.
	time.Sleep(2 * time.Millisecond)
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	for i, code := range results {
		switch code {
		case http.StatusOK:
			// Registered before the flip; Drain waited for it.
		case http.StatusServiceUnavailable:
			var er ErrorResponse
			if err := json.Unmarshal(bodiesOut[i], &er); err != nil {
				t.Fatalf("client %d: 503 body not ErrorResponse: %s", i, bodiesOut[i])
			}
			if !bytes.Contains(bodiesOut[i], []byte("draining")) {
				t.Fatalf("client %d: 503 body does not cite draining: %s", i, bodiesOut[i])
			}
			if er.RetryAfterSec <= 0 {
				t.Fatalf("client %d: draining 503 without retryAfterSec: %s", i, bodiesOut[i])
			}
		default:
			t.Fatalf("client %d: status %d, want 200 or a consistent 503 (body %s)", i, code, bodiesOut[i])
		}
	}
}

// TestDrainServesCacheHits pins the post-unification semantics: drain
// refuses new solves but keeps answering from the cache — a draining
// replica stays useful to the fleet until its plans are synced away.
func TestDrainServesCacheHits(t *testing.T) {
	s := New(Config{})
	ts := newHTTPServer(t, s)
	body := testBody(t, 1, fastOptions())

	resp := post(t, ts.URL+"/v1/place", body)
	warm := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d %s", resp.StatusCode, warm)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp = post(t, ts.URL+"/v1/place", body)
	hit := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit while draining: %d %s", resp.StatusCode, hit)
	}
	if got := resp.Header.Get("X-Pesto-Cache"); got != "hit" {
		t.Fatalf("X-Pesto-Cache %q while draining, want hit", got)
	}
	if !bytes.Equal(warm, hit) {
		t.Fatal("drained cache hit not byte-identical")
	}
	// A fresh graph still takes the single 503 path.
	resp = post(t, ts.URL+"/v1/place", testBody(t, 99, fastOptions()))
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(data, []byte("draining")) {
		t.Fatalf("fresh solve while draining: %d %s", resp.StatusCode, data)
	}
}

// newHTTPServer is newTestServer without the drain-on-cleanup (for
// tests that drain mid-test themselves).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// TestClientDisconnectFreesSolverSlot holds the satellite contract:
// an abandoned request's cancellation propagates into the ladder
// solve, the solver slot frees, and no goroutine leaks. The solve is
// given an ILP-sized budget so it cannot finish on its own within the
// test.
func TestClientDisconnectFreesSolverSlot(t *testing.T) {
	s := New(Config{MaxConcurrentSolves: 1, QueueDepth: 4})
	ts := newHTTPServer(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 11, Nodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: 30_000}})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/place", bytes.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			readAll(t, resp)
		}
		errCh <- err
	}()
	// Let the solve reach the solver slot, then hang up.
	waitFor(t, 10*time.Second, func() bool { return s.admit.inFlight() == 1 }, "solve to start")
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want canceled", err)
	}

	// The abandoned fill must cancel: slot freed, failed fill removed
	// from the cache, goroutines unwound.
	waitFor(t, 10*time.Second, func() bool { return s.admit.inFlight() == 0 }, "solver slot to free")
	waitFor(t, 10*time.Second, func() bool { return s.cache.len() == 0 }, "abandoned fill to be dropped")
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= before+2 }, "goroutines to unwind")

	// The freed slot serves the next request normally.
	resp := post(t, ts.URL+"/v1/place", testBody(t, 12, fastOptions()))
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up solve: %d %s", resp.StatusCode, data)
	}
}

// TestLeaderCancelPromotesFollower: the singleflight fill survives the
// first requester hanging up as long as any follower still wants the
// answer — the fill's interest context is refcounted, not tied to the
// leader.
func TestLeaderCancelPromotesFollower(t *testing.T) {
	c := newPlanCache(8)
	key := [32]byte{7}
	block := make(chan struct{})
	var fillCancelled atomic.Bool
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.getOrFill(leaderCtx, key, key, func(ctx context.Context) ([]byte, error) {
			<-block
			if ctx.Err() != nil {
				fillCancelled.Store(true)
				return nil, ctx.Err()
			}
			return []byte("answer"), nil
		})
		leaderDone <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return c.len() == 1 }, "leader to install entry")

	followerDone := make(chan struct{})
	var followerBody []byte
	var followerErr error
	go func() {
		defer close(followerDone)
		followerBody, _, followerErr = c.getOrFill(context.Background(), key, key, func(context.Context) ([]byte, error) {
			return nil, errors.New("follower must not fill")
		})
	}()
	// Give the follower time to join the entry, then kill the leader.
	waitFor(t, 5*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		e := c.entries[key]
		return e != nil && e.interest == 2
	}, "follower to join")
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err %v, want canceled", err)
	}
	close(block)
	<-followerDone
	if followerErr != nil {
		t.Fatalf("follower err: %v (leader cancellation strands followers)", followerErr)
	}
	if !bytes.Equal(followerBody, []byte("answer")) {
		t.Fatalf("follower body %q", followerBody)
	}
	if fillCancelled.Load() {
		t.Fatal("fill context cancelled despite a live follower")
	}
	if got := c.fills.Load(); got != 1 {
		t.Fatalf("fills %d, want 1", got)
	}
}

// TestRetryAfterSemantics pins the machine-readable overload contract
// the fleet router depends on: 429 (saturated) and 503 (draining)
// both carry Retry-After as a header of parseable positive seconds
// and the same value in the body's retryAfterSec.
func TestRetryAfterSemantics(t *testing.T) {
	check := func(t *testing.T, resp *http.Response, data []byte, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Fatalf("status %d, want %d (%s)", resp.StatusCode, wantCode, data)
		}
		ra := resp.Header.Get("Retry-After")
		sec, err := strconv.Atoi(ra)
		if err != nil || sec <= 0 {
			t.Fatalf("Retry-After %q not parseable positive seconds (%v)", ra, err)
		}
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("body not ErrorResponse: %s", data)
		}
		if er.RetryAfterSec != int64(sec) {
			t.Fatalf("body retryAfterSec %d != header %d", er.RetryAfterSec, sec)
		}
	}

	t.Run("saturated-429", func(t *testing.T) {
		s, ts := newTestServer(t, Config{MaxConcurrentSolves: 1, QueueDepth: -1})
		s.admit.slots <- struct{}{}
		defer func() { <-s.admit.slots }()
		resp := post(t, ts.URL+"/v1/place", testBody(t, 1, RequestOptions{BudgetMs: 50, NoCache: true}))
		check(t, resp, readAll(t, resp), http.StatusTooManyRequests)
	})

	t.Run("draining-503", func(t *testing.T) {
		s := New(Config{})
		ts := newHTTPServer(t, s)
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		resp := post(t, ts.URL+"/v1/place", testBody(t, 2, fastOptions()))
		check(t, resp, readAll(t, resp), http.StatusServiceUnavailable)
	})
}

// TestCacheExportImport drives the warm-sync protocol end to end over
// HTTP: solve on one server, export its shard, import into a fresh
// server, and require byte-identical cache hits there without a single
// local solve.
func TestCacheExportImport(t *testing.T) {
	_, tsA := newTestServer(t, Config{})
	const graphs = 4
	want := make(map[string][]byte, graphs)
	var bodies [][]byte
	for i := 1; i <= graphs; i++ {
		body := testBody(t, int64(i), fastOptions())
		bodies = append(bodies, body)
		resp := post(t, tsA.URL+"/v1/place", body)
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, data)
		}
		var pr PlaceResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		want[pr.CacheKey] = data
	}

	// lo == hi exports the full ring.
	resp, err := http.Get(tsA.URL + "/v1/cache/export?lo=0&hi=0")
	if err != nil {
		t.Fatal(err)
	}
	exported := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %s", resp.StatusCode, exported)
	}
	var ce CacheExport
	if err := json.Unmarshal(exported, &ce); err != nil {
		t.Fatal(err)
	}
	if len(ce.Entries) != graphs {
		t.Fatalf("exported %d entries, want %d", len(ce.Entries), graphs)
	}

	sB, tsB := newTestServer(t, Config{})
	resp = post(t, tsB.URL+"/v1/cache/import", exported)
	impBody := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: %d %s", resp.StatusCode, impBody)
	}
	var ir CacheImportResult
	if err := json.Unmarshal(impBody, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Installed != graphs || ir.Skipped != 0 {
		t.Fatalf("import installed=%d skipped=%d, want %d/0", ir.Installed, ir.Skipped, graphs)
	}

	// Every request on B is now a hit, byte-identical to A's answer,
	// with zero solves run on B.
	for i, body := range bodies {
		resp := post(t, tsB.URL+"/v1/place", body)
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %d: %d %s", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Pesto-Cache"); got != "hit" {
			t.Fatalf("replay %d: X-Pesto-Cache %q, want hit", i, got)
		}
		var pr PlaceResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want[pr.CacheKey], data) {
			t.Fatalf("replay %d not byte-identical to origin:\n%s\nvs\n%s", i, want[pr.CacheKey], data)
		}
	}
	if fills, _, _ := sB.CacheStats(); fills != 0 {
		t.Fatalf("server B ran %d solves, want 0", fills)
	}

	// Re-importing is idempotent: everything is skipped.
	resp = post(t, tsB.URL+"/v1/cache/import", exported)
	impBody = readAll(t, resp)
	if err := json.Unmarshal(impBody, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Installed != 0 || ir.Skipped != graphs {
		t.Fatalf("re-import installed=%d skipped=%d, want 0/%d", ir.Installed, ir.Skipped, graphs)
	}
}

// TestCacheExportShardFiltering checks the arc semantics the ring
// relies on: an entry is exported exactly when its fingerprint's
// RingPoint lies on (lo, hi], with wraparound, and a sliced keyspace
// re-unions to the whole.
func TestCacheExportShardFiltering(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const graphs = 6
	points := make(map[string]uint64)
	for i := 1; i <= graphs; i++ {
		g, err := gen.Generate(gen.Config{Family: gen.Diamond, Seed: int64(i), Nodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		points[fmt.Sprintf("%x", g.Fingerprint())] = RingPoint(g.Fingerprint())
		resp := post(t, ts.URL+"/v1/place", testBody(t, int64(i), fastOptions()))
		if data := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, data)
		}
	}
	export := func(lo, hi uint64) []CacheEntryWire {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/cache/export?lo=%d&hi=%d", ts.URL, lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export: %d %s", resp.StatusCode, data)
		}
		var ce CacheExport
		if err := json.Unmarshal(data, &ce); err != nil {
			t.Fatal(err)
		}
		return ce.Entries
	}
	// Split the ring at an arbitrary point: the two arcs must partition
	// the entries.
	const cut = uint64(1) << 63
	loHalf := export(cut, 0) // (cut, 0] wraps through max
	hiHalf := export(0, cut) // (0, cut]
	if len(loHalf)+len(hiHalf) != graphs {
		t.Fatalf("arcs do not partition: %d + %d != %d", len(loHalf), len(hiHalf), graphs)
	}
	for _, e := range hiHalf {
		if p := points[e.Fingerprint]; !(p > 0 && p <= cut) {
			t.Fatalf("entry %s (point %d) exported on wrong arc", e.Fingerprint, p)
		}
	}
	// Malformed queries are 400, not panics.
	resp, err := http.Get(ts.URL + "/v1/cache/export?lo=x&hi=0")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lo: status %d, want 400", resp.StatusCode)
	}
}
