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
	"sync"
	"testing"
	"time"

	"pesto/internal/gen"
)

func TestCacheSingleflight(t *testing.T) {
	c := newPlanCache(16)
	key := [32]byte{1}
	const waiters = 32
	started := make(chan struct{})
	var wg sync.WaitGroup
	bodies := make([][]byte, waiters)
	var fillRuns int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.getOrFill(context.Background(), key, key, func(context.Context) ([]byte, error) {
				fillRuns++ // leader-only; racy writes here would trip -race
				<-started  // hold followers on the ready channel
				return []byte("plan"), nil
			})
			if err != nil {
				t.Errorf("getOrFill: %v", err)
			}
			bodies[i] = body
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers pile onto the entry
	close(started)
	wg.Wait()
	if fillRuns != 1 {
		t.Fatalf("fill ran %d times, want 1", fillRuns)
	}
	if got := c.fills.Load(); got != 1 {
		t.Fatalf("fills counter %d, want 1", got)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, []byte("plan")) {
			t.Fatalf("waiter %d got %q", i, b)
		}
	}
}

func TestCacheFailedFillRetries(t *testing.T) {
	c := newPlanCache(16)
	key := [32]byte{2}
	boom := errors.New("boom")
	if _, _, err := c.getOrFill(context.Background(), key, key, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.len() != 0 {
		t.Fatalf("failed fill cached: len %d", c.len())
	}
	body, hit, err := c.getOrFill(context.Background(), key, key, func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || hit || !bytes.Equal(body, []byte("ok")) {
		t.Fatalf("retry: body=%q hit=%v err=%v", body, hit, err)
	}
	if got := c.fills.Load(); got != 2 {
		t.Fatalf("fills %d, want 2", got)
	}
}

func TestCacheFollowerContextCancel(t *testing.T) {
	c := newPlanCache(16)
	key := [32]byte{3}
	block := make(chan struct{})
	go c.getOrFill(context.Background(), key, key, func(context.Context) ([]byte, error) {
		<-block
		return []byte("late"), nil
	})
	for c.len() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.getOrFill(ctx, key, key, func(context.Context) ([]byte, error) {
		t.Error("follower ran fill")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	close(block)
}

func TestCacheEvictionStress(t *testing.T) {
	c := newPlanCache(4)
	const goroutines = 32
	const keys = 24
	const iters = 64
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var key [32]byte
				key[0] = byte((gr*7 + i) % keys)
				want := []byte{key[0]}
				body, _, err := c.getOrFill(context.Background(), key, key, func(context.Context) ([]byte, error) {
					return []byte{key[0]}, nil
				})
				if err != nil {
					t.Errorf("getOrFill: %v", err)
					return
				}
				// Evictions refill, but refills of a deterministic fill
				// are byte-identical.
				if !bytes.Equal(body, want) {
					t.Errorf("key %d got body %v", key[0], body)
					return
				}
			}
		}(gr)
	}
	wg.Wait()
	if got := c.len(); got > 4 {
		t.Fatalf("cache over capacity after quiescence: %d", got)
	}
	if c.plans.Evictions() == 0 {
		t.Fatal("no evictions despite keys > capacity")
	}
}

// TestServiceStressRace is the issue's singleflight stress: 64
// goroutines hammering the daemon with a mix of repeat graphs. With the
// cache sized above the number of distinct requests, the number of
// solves must equal the number of distinct cache keys, and every
// response for one key must be byte-identical.
func TestServiceStressRace(t *testing.T) {
	const distinct = 6
	const goroutines = 64
	const perGoroutine = 8

	s := New(Config{MaxConcurrentSolves: 4, QueueDepth: goroutines, CacheEntries: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	bodies := make([][]byte, distinct)
	for i := range bodies {
		g, err := gen.Generate(gen.Config{Family: gen.Diamond, Seed: int64(i + 1), Nodes: 12})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: 50}})
		if err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	responses := make(map[int][][]byte)
	var wg sync.WaitGroup
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				which := (gr + i) % distinct
				resp, err := http.Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(bodies[which]))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, data)
					return
				}
				mu.Lock()
				responses[which] = append(responses[which], data)
				mu.Unlock()
			}
		}(gr)
	}
	wg.Wait()

	fills, evictions, _ := s.CacheStats()
	if evictions != 0 {
		t.Fatalf("unexpected evictions %d with cap > distinct keys", evictions)
	}
	if fills != distinct {
		t.Fatalf("solves = %d, want %d (singleflight violated)", fills, distinct)
	}
	total := 0
	for which, got := range responses {
		total += len(got)
		for i := 1; i < len(got); i++ {
			if !bytes.Equal(got[0], got[i]) {
				t.Fatalf("graph %d response %d differs:\n%s\nvs\n%s", which, i, got[0], got[i])
			}
		}
	}
	if total != goroutines*perGoroutine {
		t.Fatalf("served %d responses, want %d", total, goroutines*perGoroutine)
	}
}

// TestServiceEvictRefillByteIdentical mixes hits, misses and evictions
// (cache smaller than the working set) and checks that refilled entries
// still serve byte-identical bodies — determinism, not cache residency,
// is what the byte-identity guarantee rests on.
func TestServiceEvictRefillByteIdentical(t *testing.T) {
	const distinct = 8
	s := New(Config{MaxConcurrentSolves: 2, QueueDepth: 64, CacheEntries: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(context.Background())

	bodies := make([][]byte, distinct)
	for i := range bodies {
		g, err := gen.Generate(gen.Config{Family: gen.Chain, Seed: int64(i + 1), Nodes: 10})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: 50}})
		if err != nil {
			t.Fatal(err)
		}
	}
	first := make([][]byte, distinct)
	for round := 0; round < 3; round++ {
		for i, body := range bodies {
			resp, err := http.Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			if round == 0 {
				first[i] = data
			} else if !bytes.Equal(first[i], data) {
				t.Fatalf("round %d graph %d differs from round 0:\n%s\nvs\n%s", round, i, first[i], data)
			}
		}
	}
	_, evictions, _ := s.CacheStats()
	if evictions == 0 {
		t.Fatal("working set over capacity produced no evictions")
	}
}

// TestMetricsCountEvictions: a plan the cache's bound evicts shows up
// in the scrape as event="evict".
func TestMetricsCountEvictions(t *testing.T) {
	s := New(Config{CacheEntries: 1})
	for seed := int64(1); seed <= 2; seed++ {
		if rec := serve(s, "/v1/place", testBody(t, seed, fastOptions())); rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, rec.Code, rec.Body.Bytes())
		}
	}
	var buf bytes.Buffer
	s.met.write(&buf)
	if want := `pestod_cache_events_total{event="evict"} 1` + "\n"; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("scrape lacks %q:\n%s", want, buf.Bytes())
	}
}

func TestCacheKeyDistinguishesOptions(t *testing.T) {
	fp := [32]byte{9}
	base := RequestOptions{GPUs: 2, Hosts: 1, GPUMemBytes: 1 << 30, BudgetMs: 100}
	seen := map[[32]byte]string{cacheKey2(base, fp): "base"}
	variants := map[string]RequestOptions{
		"gpus":     {GPUs: 4, Hosts: 1, GPUMemBytes: 1 << 30, BudgetMs: 100},
		"hosts":    {GPUs: 2, Hosts: 2, GPUMemBytes: 1 << 30, BudgetMs: 100},
		"mem":      {GPUs: 2, Hosts: 1, GPUMemBytes: 2 << 30, BudgetMs: 100},
		"budget":   {GPUs: 2, Hosts: 1, GPUMemBytes: 1 << 30, BudgetMs: 200},
		"seed":     {GPUs: 2, Hosts: 1, GPUMemBytes: 1 << 30, BudgetMs: 100, Seed: 7},
		"schedule": {GPUs: 2, Hosts: 1, GPUMemBytes: 1 << 30, BudgetMs: 100, ScheduleFromILP: true},
	}
	for name, o := range variants {
		k := cacheKey2(o, fp)
		if prev, dup := seen[k]; dup {
			t.Errorf("option %q collides with %q", name, prev)
		}
		seen[k] = name
	}
	// Verify and NoCache must NOT change the key: they do not change
	// the plan.
	same := base
	same.Verify = true
	same.NoCache = true
	if cacheKey2(same, fp) != cacheKey2(base, fp) {
		t.Error("verify/noCache changed the cache key")
	}
	// A different fingerprint must change the key.
	if cacheKey2(base, [32]byte{10}) == cacheKey2(base, fp) {
		t.Error("fingerprint does not reach the cache key")
	}
}

func cacheKey2(o RequestOptions, fp [32]byte) [32]byte { return o.cacheKey(fp) }

func TestAdmissionFastPathAndRelease(t *testing.T) {
	a := newAdmission(2, 0)
	r1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.inFlight(); got != 2 {
		t.Fatalf("inFlight %d, want 2", got)
	}
	if _, err := a.acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	r1()
	r3, err := a.acquire(context.Background())
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r2()
	r3()
	if got := a.inFlight(); got != 0 {
		t.Fatalf("inFlight %d after releases", got)
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	a := newAdmission(1, 2)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = a.acquire(ctx)
	if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrQueueTimeout wrapping deadline", err)
	}
	if got := a.queueLen(); got != 0 {
		t.Fatalf("queueLen %d after timeout", got)
	}
}

func TestAdmissionQueueHandoff(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := a.acquire(context.Background())
		if err == nil {
			r()
		}
		got <- err
	}()
	for a.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire never got the freed slot")
	}
}

func TestMetricsHistogramBuckets(t *testing.T) {
	m := newMetrics()
	m.observeSolve(500*time.Microsecond, "ilp-exact") // ≤ 0.001
	m.observeSolve(40*time.Millisecond, "ilp-exact")  // ≤ 0.1
	m.observeSolve(2*time.Minute, "ilp-exact")        // +Inf
	m.observeSolve(time.Millisecond, "error")         // separate series
	var buf bytes.Buffer
	m.write(&buf)
	text := buf.String()
	for _, want := range []string{
		`pestod_solve_duration_seconds_bucket{stage="ilp-exact",le="0.001"} 1`,
		`pestod_solve_duration_seconds_bucket{stage="ilp-exact",le="0.1"} 2`,
		`pestod_solve_duration_seconds_bucket{stage="ilp-exact",le="30"} 2`,
		`pestod_solve_duration_seconds_bucket{stage="ilp-exact",le="+Inf"} 3`,
		`pestod_solve_duration_seconds_count{stage="ilp-exact"} 3`,
		`pestod_solve_duration_seconds_bucket{stage="error",le="+Inf"} 1`,
		`pestod_solve_duration_seconds_count{stage="error"} 1`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestMetricsConcurrentScrape(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.request("place", "ok")
				m.cacheEvent("hit")
				m.planServed(fmt.Sprintf("stage-%d", i%3))
				m.observeSolve(time.Duration(j)*time.Millisecond, "ilp-exact")
				if j%10 == 0 {
					m.write(io.Discard)
				}
			}
		}(i)
	}
	wg.Wait()
	var buf bytes.Buffer
	m.write(&buf)
	if !bytes.Contains(buf.Bytes(), []byte(`pestod_requests_total{endpoint="place",outcome="ok"} 1600`)) {
		t.Fatalf("lost increments:\n%s", buf.String())
	}
}
