package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"pesto/internal/fault"
	"pesto/internal/gen"
	"pesto/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fakeBackend scripts a replica for unit tests.
type fakeBackend struct {
	id string
	fn func(ctx context.Context, method, path string, body []byte) (*Response, error)
}

func (f *fakeBackend) ID() string { return f.id }
func (f *fakeBackend) Do(ctx context.Context, method, path string, hdr http.Header, body []byte) (*Response, error) {
	return f.fn(ctx, method, path, body)
}

func ok200(body string) *Response {
	return &Response{Status: http.StatusOK, Header: make(http.Header), Body: []byte(body)}
}

// fastServiceConfig keeps replica solves on the heuristic rung.
func fastServiceConfig() service.Config {
	return service.Config{Parallel: 1, DefaultBudget: 50 * time.Millisecond, MaxBudget: time.Second}
}

// newServiceFleet builds n in-process pestod replicas behind a router.
func newServiceFleet(t *testing.T, n int, cfg Config) (*Router, []*service.Server) {
	t.Helper()
	servers := make([]*service.Server, n)
	backends := make([]Backend, n)
	for i := range servers {
		s := service.New(fastServiceConfig())
		servers[i] = s
		backends[i] = NewHandlerBackend(fmt.Sprintf("r%d", i), s)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Drain(ctx)
		})
	}
	rt, err := New(cfg, backends...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, servers
}

// placeBody builds one /v1/place body plus its graph fingerprint.
func placeBody(t *testing.T, seed int64) ([]byte, [32]byte) {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Diamond, Seed: seed, Nodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.PlaceRequest{Graph: g, Options: service.RequestOptions{BudgetMs: 50}})
	if err != nil {
		t.Fatal(err)
	}
	return body, g.Fingerprint()
}

// bodyOwnedBy searches seeds until the generated graph's ring owner is
// the wanted replica index.
func bodyOwnedBy(t *testing.T, rt *Router, owner int) ([]byte, [32]byte) {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		body, fp := placeBody(t, seed)
		if rt.ring.successors(service.RingPoint(fp))[0] == owner {
			return body, fp
		}
	}
	t.Fatalf("no seed in 500 maps to replica %d", owner)
	return nil, [32]byte{}
}

func postJSON(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRouterRoutesByOwnerAndCaches(t *testing.T) {
	rt, _ := newServiceFleet(t, 3, Config{DisableHedge: true})
	for seed := int64(1); seed <= 6; seed++ {
		body, fp := placeBody(t, seed)
		wantOwner := fmt.Sprintf("r%d", rt.ring.successors(service.RingPoint(fp))[0])
		first := postJSON(t, rt, "/v1/place", body)
		if first.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, first.Code, first.Body.Bytes())
		}
		if got := first.Header().Get("X-Pesto-Replica"); got != wantOwner {
			t.Fatalf("seed %d routed to %s, ring owner is %s", seed, got, wantOwner)
		}
		if first.Header().Get("X-Pesto-Cache") != "miss" {
			t.Fatalf("seed %d: first request was not a miss", seed)
		}
		second := postJSON(t, rt, "/v1/place", body)
		if second.Header().Get("X-Pesto-Cache") != "hit" {
			t.Fatalf("seed %d: repeat request missed the cache", seed)
		}
		if got := second.Header().Get("X-Pesto-Replica"); got != wantOwner {
			t.Fatalf("seed %d: repeat request moved to %s", seed, got)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("seed %d: hit body differs from miss body", seed)
		}
	}
}

func TestRouterFailoverOnDeadReplica(t *testing.T) {
	rt, servers := newServiceFleet(t, 3, Config{DisableHedge: true})
	_ = servers
	// Replace replica 1's backend with a dead one, after ring
	// construction (the ring keeps its arcs; the router must fail over).
	dead := &fakeBackend{id: "r1", fn: func(ctx context.Context, method, path string, body []byte) (*Response, error) {
		return nil, ErrReplicaDown
	}}
	rt.reps[1].b = dead
	body, fp := bodyOwnedBy(t, rt, 1)
	w := postJSON(t, rt, "/v1/place", body)
	if w.Code != http.StatusOK {
		t.Fatalf("request owned by dead replica failed: %d %s", w.Code, w.Body.Bytes())
	}
	served := w.Header().Get("X-Pesto-Replica")
	wantNext := fmt.Sprintf("r%d", rt.ring.successors(service.RingPoint(fp))[1])
	if served != wantNext {
		t.Fatalf("failover served by %s, want next successor %s", served, wantNext)
	}
	if _, _, failovers, _ := rt.Stats(); failovers == 0 {
		t.Fatal("failover not counted")
	}
}

func TestRouterRetryAfterHonored(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header bool
	}{
		{"header", true},
		{"body-only", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			be := &fakeBackend{id: "solo", fn: func(ctx context.Context, method, path string, body []byte) (*Response, error) {
				if calls.Add(1) == 1 {
					h := make(http.Header)
					if tc.header {
						h.Set("Retry-After", "2")
					}
					return &Response{Status: http.StatusTooManyRequests, Header: h,
						Body: []byte(`{"error":"saturated","retryAfterSec":2}`)}, nil
				}
				return ok200(`{"plan":true}`), nil
			}}
			var mu sync.Mutex
			var sleeps []time.Duration
			cfg := Config{
				DisableHedge: true,
				Sleep: func(ctx context.Context, d time.Duration) error {
					mu.Lock()
					sleeps = append(sleeps, d)
					mu.Unlock()
					return nil
				},
			}
			rt, err := New(cfg, be)
			if err != nil {
				t.Fatal(err)
			}
			_, fp := placeBody(t, 1)
			resp, err := rt.Do(context.Background(), http.MethodPost, "/v1/place", nil, fp)
			if err != nil {
				t.Fatalf("Do: %v", err)
			}
			if resp.Status != http.StatusOK {
				t.Fatalf("status %d", resp.Status)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(sleeps) != 1 {
				t.Fatalf("slept %d times, want 1 (between passes)", len(sleeps))
			}
			if sleeps[0] < 2*time.Second {
				t.Fatalf("slept %v, want >= the replica's Retry-After of 2s", sleeps[0])
			}
			if retries, _, _, _ := rt.Stats(); retries != 1 {
				t.Fatalf("retries = %d, want 1", retries)
			}
		})
	}
}

// TestBackoffJitterDeterministic holds the replay contract: backoff is
// a pure function of (seed, fingerprint, pass) within [d/2, d).
func TestBackoffJitterDeterministic(t *testing.T) {
	mk := func(seed int64) *Router {
		rt, err := New(Config{Seed: seed},
			&fakeBackend{id: "a", fn: nil})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b, c := mk(7), mk(7), mk(8)
	differ := false
	for i := 0; i < 16; i++ {
		_, fp := placeBody(t, int64(i))
		for pass := 0; pass < 3; pass++ {
			da, db, dc := a.backoff(pass, fp), b.backoff(pass, fp), c.backoff(pass, fp)
			if da != db {
				t.Fatalf("same seed diverged: %v vs %v", da, db)
			}
			if da != dc {
				differ = true
			}
			base := baseBackoff << uint(pass)
			if base > maxBackoff {
				base = maxBackoff
			}
			if da < base/2 || da >= base {
				t.Fatalf("backoff %v outside [%v, %v)", da, base/2, base)
			}
		}
	}
	if !differ {
		t.Fatal("different seeds never changed the jitter")
	}
}

func TestRouterHedgesSlowReplica(t *testing.T) {
	slowBody := ok200(`{"who":"slow"}`)
	fastBody := ok200(`{"who":"fast"}`)
	mk := func(id string, slow bool) *fakeBackend {
		return &fakeBackend{id: id, fn: func(ctx context.Context, method, path string, body []byte) (*Response, error) {
			if slow {
				select {
				case <-time.After(500 * time.Millisecond):
					return slowBody, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return fastBody, nil
		}}
	}
	rt, err := New(Config{}, mk("a", false), mk("b", false))
	if err != nil {
		t.Fatal(err)
	}
	// Fast answers fill the latency window, so the hedge fires at
	// hedgeMin rather than waiting out hedgeMax.
	for i := 0; i < 8; i++ {
		rt.observeLatency(attemptResult{resp: fastBody, dur: time.Millisecond})
	}
	// Find a fingerprint owned by replica 0 and make that replica slow.
	_, fp := bodyOwnedBy(t, rt, 0)
	rt.reps[0].b = mk("a", true)
	resp, err := rt.Do(context.Background(), http.MethodPost, "/v1/place", nil, fp)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	var who struct{ Who string }
	if err := json.Unmarshal(resp.Body, &who); err != nil || who.Who != "fast" {
		t.Fatalf("served by %q, want the hedge target (err %v)", who.Who, err)
	}
	if _, hedges, _, _ := rt.Stats(); hedges != 1 {
		t.Fatalf("hedges = %d, want 1", hedges)
	}
}

// TestHedgeWindowSkipsRefusals: a 429 is no answer, so it never enters
// the hedge window. A replica refusing instantly leaves the delay at
// hedgeMax, and refusals mixed into a stream of answers leave the delay
// where the answers alone put it.
func TestHedgeWindowSkipsRefusals(t *testing.T) {
	refuse := &fakeBackend{id: "solo", fn: func(ctx context.Context, method, path string, body []byte) (*Response, error) {
		return &Response{Status: http.StatusTooManyRequests, Header: make(http.Header), Body: []byte(`{}`)}, nil
	}}
	cfg := Config{Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	rt, err := New(cfg, refuse)
	if err != nil {
		t.Fatal(err)
	}
	_, fp := placeBody(t, 1)
	for i := 0; i < 50; i++ {
		if _, err := rt.Do(context.Background(), http.MethodPost, "/v1/place", nil, fp); err == nil {
			t.Fatal("a refused request succeeded")
		}
	}
	if got := rt.hedgeDelay(); got != hedgeMax {
		t.Fatalf("hedge delay after 50 instant 429s = %v, want hedgeMax %v", got, hedgeMax)
	}

	mixed, err := New(cfg, refuse)
	if err != nil {
		t.Fatal(err)
	}
	answersOnly, err := New(cfg, refuse)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ok := attemptResult{resp: ok200(`{}`), dur: time.Duration(10+i) * time.Millisecond}
		mixed.observeLatency(ok)
		answersOnly.observeLatency(ok)
		mixed.observeLatency(attemptResult{resp: &Response{Status: http.StatusTooManyRequests}, dur: time.Microsecond})
	}
	if got, want := mixed.hedgeDelay(), answersOnly.hedgeDelay(); got != want {
		t.Fatalf("hedge delay over 200s mixed with 429s = %v, over the 200s alone = %v", got, want)
	}
}

// TestRouterLastResortIgnoresGates: when detection says everything is
// down but a replica actually works (probe blackhole), requests still
// get through via the gate-free last-resort sweep.
func TestRouterLastResortIgnoresGates(t *testing.T) {
	be := &fakeBackend{id: "solo", fn: func(ctx context.Context, method, path string, body []byte) (*Response, error) {
		if method == http.MethodGet && path == "/healthz" {
			return nil, ErrReplicaDown // probes blackholed
		}
		return ok200(`{}`), nil
	}}
	rt, err := New(Config{DisableHedge: true, ProbeFailures: 1}, be)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeAll(context.Background())
	if rt.reps[0].isUp() {
		t.Fatal("blackholed probe did not mark replica down")
	}
	_, fp := placeBody(t, 3)
	resp, err := rt.Do(context.Background(), http.MethodPost, "/v1/place", nil, fp)
	if err != nil {
		t.Fatalf("request failed with all replicas marked down but alive: %v", err)
	}
	if resp.Status != http.StatusOK {
		t.Fatalf("status %d", resp.Status)
	}
}

// TestBatchBrokenBody: a batch body that fails to read is a 400; only
// a body over the limit is a 413.
func TestBatchBrokenBody(t *testing.T) {
	rt, _ := newServiceFleet(t, 1, Config{DisableHedge: true})
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place/batch", iotest.ErrReader(errors.New("connection reset"))))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.Bytes())
	}
}

func TestBatchDedupesAndFansOut(t *testing.T) {
	rt, servers := newServiceFleet(t, 3, Config{DisableHedge: true})
	b1, _ := placeBody(t, 11)
	b2, _ := placeBody(t, 12)
	b3, _ := placeBody(t, 13)
	batch := BatchRequest{Requests: []json.RawMessage{b1, b2, b1, b3, b2, b1, []byte(`{}`)}}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, rt, "/v1/place/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.Bytes())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 7 {
		t.Fatalf("got %d results, want 7", len(resp.Results))
	}
	for i := 0; i < 6; i++ {
		if resp.Results[i].Status != http.StatusOK {
			t.Fatalf("entry %d status %d: %s", i, resp.Results[i].Status, resp.Results[i].Body)
		}
	}
	if resp.Results[6].Status != http.StatusBadRequest {
		t.Fatalf("malformed entry got %d, want 400", resp.Results[6].Status)
	}
	// Duplicates share one solve: byte-identical bodies...
	if !bytes.Equal(resp.Results[0].Body, resp.Results[2].Body) || !bytes.Equal(resp.Results[0].Body, resp.Results[5].Body) {
		t.Fatal("duplicate entries returned different bodies")
	}
	if !bytes.Equal(resp.Results[1].Body, resp.Results[4].Body) {
		t.Fatal("duplicate entries returned different bodies")
	}
	// ...and the fleet solved each unique graph exactly once.
	var fills int64
	for _, s := range servers {
		f, _, _ := s.CacheStats()
		fills += f
	}
	if fills != 3 {
		t.Fatalf("fleet ran %d fills for 3 unique graphs", fills)
	}
}

// TestWarmSyncOnRejoin drives a kill/restart cycle on a virtual clock:
// a replica dies, its keys fail over, and the cold restarted replica
// is warm-synced from its peer before taking traffic — so its first
// request is already a byte-for-byte cache hit.
func TestWarmSyncOnRejoin(t *testing.T) {
	var clockNs atomic.Int64
	clock := func() time.Duration { return time.Duration(clockNs.Load()) }
	spec, err := fault.ParseFleetSpec("rkill:r1@1s,restart=1s")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewFleet(spec)

	s0 := service.New(fastServiceConfig())
	s1 := service.New(fastServiceConfig())
	chaos := NewChaosBackend(NewHandlerBackend("r1", s1), inj, clock)
	rt, err := New(Config{DisableHedge: true, ProbeFailures: 1,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }},
		NewHandlerBackend("r0", s0), chaos)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Phase 1 (t=0): traffic flows to both replicas.
	body1, fp1 := bodyOwnedBy(t, rt, 1)
	if w := postJSON(t, rt, "/v1/place", body1); w.Code != http.StatusOK || w.Header().Get("X-Pesto-Replica") != "r1" {
		t.Fatalf("phase 1: %d served by %s", w.Code, w.Header().Get("X-Pesto-Replica"))
	}
	wantBody := postJSON(t, rt, "/v1/place", body1).Body.Bytes()

	// Phase 2 (t=1.5s): r1 is dead; its keys fail over to r0 and get
	// re-solved there.
	clockNs.Store(int64(1500 * time.Millisecond))
	rt.ProbeAll(ctx)
	if rt.reps[1].isUp() {
		t.Fatal("killed replica still marked up after failed probe")
	}
	w := postJSON(t, rt, "/v1/place", body1)
	if w.Code != http.StatusOK || w.Header().Get("X-Pesto-Replica") != "r0" {
		t.Fatalf("outage request: %d served by %s", w.Code, w.Header().Get("X-Pesto-Replica"))
	}
	if !bytes.Equal(w.Body.Bytes(), wantBody) {
		t.Fatal("failover answer differs from the pre-kill answer")
	}

	// Phase 3 (t=2.5s): r1 restarts cold (fresh server, empty cache).
	// The next probe warm-syncs its keyspace from r0 before marking up.
	s1b := service.New(fastServiceConfig())
	chaos.Replace(NewHandlerBackend("r1", s1b))
	clockNs.Store(int64(2500 * time.Millisecond))
	rt.ProbeAll(ctx)
	if !rt.reps[1].isUp() {
		t.Fatal("restarted replica not marked up after healthy probe")
	}
	_, _, _, warmKeys := rt.Stats()
	if warmKeys == 0 {
		t.Fatal("rejoin installed no warm-sync keys")
	}
	// The rejoined replica serves its key as a hit without solving.
	w = postJSON(t, rt, "/v1/place", body1)
	if w.Code != http.StatusOK || w.Header().Get("X-Pesto-Replica") != "r1" {
		t.Fatalf("post-rejoin request: %d served by %s", w.Code, w.Header().Get("X-Pesto-Replica"))
	}
	if w.Header().Get("X-Pesto-Cache") != "hit" {
		t.Fatal("post-rejoin request missed: warm-sync did not land")
	}
	if !bytes.Equal(w.Body.Bytes(), wantBody) {
		t.Fatal("post-rejoin answer differs byte-for-byte")
	}
	if fills, _, _ := s1b.CacheStats(); fills != 0 {
		t.Fatalf("restarted replica ran %d fills; warm-sync should have covered it", fills)
	}
	_ = fp1
}

func TestFleetHealthEndpoint(t *testing.T) {
	be0 := &fakeBackend{id: "r0", fn: func(ctx context.Context, m, p string, b []byte) (*Response, error) { return ok200(`{}`), nil }}
	be1 := &fakeBackend{id: "r1", fn: func(ctx context.Context, m, p string, b []byte) (*Response, error) { return nil, ErrReplicaDown }}
	rt, err := New(Config{ProbeFailures: 1}, be0, be1)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeAll(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded fleet health = %d, want 200", w.Code)
	}
	var h struct {
		Status   string
		Replicas []struct {
			ID      string
			Up      bool
			Breaker string
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Replicas) != 2 {
		t.Fatalf("health %+v", h)
	}
}

// TestFleetMetricsGoldenIdle pins the idle scrape of a 3-replica
// router byte-for-byte. Regenerate with -update.
func TestFleetMetricsGoldenIdle(t *testing.T) {
	mkOK := func(id string) *fakeBackend {
		return &fakeBackend{id: id, fn: func(ctx context.Context, m, p string, b []byte) (*Response, error) { return ok200(`{}`), nil }}
	}
	rt, err := New(Config{}, mkOK("r0"), mkOK("r1"), mkOK("r2"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rt.met.write(&buf)
	golden := filepath.Join("testdata", "fleet_metrics_idle.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("idle fleet metrics changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	var again bytes.Buffer
	rt.met.write(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("consecutive idle writes differ")
	}
}
