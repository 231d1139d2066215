package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pesto/internal/fault"
	"pesto/internal/gen"
	"pesto/internal/obs"
	"pesto/internal/service"
)

// The chaos schedule: two replica kills with restarts (r1 and r2 each
// die for 10 virtual seconds) plus a probe blackhole on r0 (detection
// says down, traffic says fine). Everything is a pure function of
// (chaosSpec, chaosSeed, request count) — a CI failure replays exactly
// from the values it prints.
const (
	chaosSpec = "rkill:r1@10s,restart=10s;rkill:r2@35s,restart=10s;probehole:r0@20s,dur=5s"
	chaosSeed = 20260807
	chaosSpan = 60 * time.Second
	// Window boundaries for the hit-rate-recovery assertion: before the
	// first kill vs after the last rejoin.
	preKillEnd      = 10 * time.Second
	postRejoinStart = 47 * time.Second
)

// chaosStats is one chaos run's outcome.
type chaosStats struct {
	requests, failed           int
	hits, misses               int
	preHits, preTotal          int
	postHits, postTotal        int
	retries, hedges, failovers int64
	warmKeys                   int64
	// Per-trace tallies rebuilt from the router's hop records; the
	// test asserts they equal the router's own counters, tying every
	// retry/hedge/failover the metrics claim to a span in a trace.
	traceMaxPass   int64 // Σ over traces of the highest hop pass
	traceHedgeHops int64 // hops recorded with kind "hedge"
	traceFailovers int64 // traces whose served hop is not the ring owner
	stitched       int   // stitched Chrome traces fetched and sanity-checked
}

func (s chaosStats) hitRate(hits, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// runChaos drives `requests` Zipf-distributed placement requests
// through a 3-replica fleet on a virtual clock while the fault
// schedule kills, restarts and blinds replicas, comparing every
// response byte-for-byte against a single-replica oracle.
func runChaos(t *testing.T, requests int) chaosStats {
	t.Helper()
	t.Logf("chaos replay: spec=%q seed=%d requests=%d", chaosSpec, chaosSeed, requests)

	spec, err := fault.ParseFleetSpec(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewFleet(spec)

	// Workload: a Zipf-skewed trace over a small corpus of generated
	// graphs, bodies and fingerprints precomputed so the drive loop
	// measures serving, not JSON encoding.
	tr, err := gen.NewTrace(gen.TraceConfig{Corpus: 24, Requests: requests, Seed: chaosSeed, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(tr.Configs))
	fps := make([][32]byte, len(tr.Configs))
	for i, cfg := range tr.Configs {
		g, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = json.Marshal(service.PlaceRequest{Graph: g, Options: service.RequestOptions{BudgetMs: 50}})
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = g.Fingerprint()
	}

	// Oracle: one replica, no faults. Its answers are the ground truth
	// the fleet must reproduce byte-for-byte through every failover.
	ctx := context.Background()
	oracleSrv := service.New(fastServiceConfig())
	defer oracleSrv.Drain(ctx)
	oracle := NewHandlerBackend("oracle", oracleSrv)
	want := make([][]byte, len(bodies))
	for i := range bodies {
		resp, err := oracle.Do(ctx, http.MethodPost, "/v1/place", nil, bodies[i])
		if err != nil || resp.Status != http.StatusOK {
			t.Fatalf("oracle solve %d: %v (status %d)", i, err, resp.Status)
		}
		want[i] = resp.Body
	}

	// The fleet: three replicas under chaos wrappers sharing one
	// virtual clock; the router runs on the same clock so breakers and
	// probes see chaos time.
	var clockNs atomic.Int64
	vclock := func() time.Duration { return time.Duration(clockNs.Load()) }
	ids := []string{"r0", "r1", "r2"}
	servers := make([]*service.Server, len(ids))
	chaosBk := make([]*ChaosBackend, len(ids))
	backends := make([]Backend, len(ids))
	for i, id := range ids {
		servers[i] = service.New(fastServiceConfig())
		chaosBk[i] = NewChaosBackend(NewHandlerBackend(id, servers[i]), inj, vclock)
		backends[i] = chaosBk[i]
	}
	defer func() {
		for _, s := range servers {
			s.Drain(ctx)
		}
	}()
	rt, err := New(Config{
		DisableHedge:  true, // keep request counts exact for the oracle comparison
		ProbeFailures: 1,
		Seed:          chaosSeed,
		Clock:         func() time.Time { return time.Unix(0, clockNs.Load()) },
		Sleep:         func(ctx context.Context, d time.Duration) error { return nil },
	}, backends...)
	if err != nil {
		t.Fatal(err)
	}

	// Drive. Probe rounds interleave every probeEvery requests (~120
	// rounds across the schedule); a restart is modeled as a *fresh*
	// server swapped in — empty cache — so the post-rejoin hit rate is
	// earned by warm-sync, not by surviving state.
	stats := chaosStats{requests: requests}
	wasKilled := make([]bool, len(ids))
	probeEvery := requests / 120
	if probeEvery < 1 {
		probeEvery = 1
	}
	// Every stitchEvery-th successful request also pulls its stitched
	// cross-replica Chrome trace through the router's HTTP surface.
	stitchEvery := requests / 50
	if stitchEvery < 1 {
		stitchEvery = 1
	}
	for i := 0; i < requests; i++ {
		vt := chaosSpan * time.Duration(i) / time.Duration(requests)
		clockNs.Store(int64(vt))
		if i%probeEvery == 0 {
			for r, id := range ids {
				killed := inj.Killed(id, vt)
				if wasKilled[r] && !killed {
					servers[r] = service.New(fastServiceConfig())
					chaosBk[r].Replace(NewHandlerBackend(id, servers[r]))
				}
				wasKilled[r] = killed
			}
			rt.ProbeAll(ctx)
		}
		rank := tr.Seq[i]
		traceID := fmt.Sprintf("req-%06d", i)
		resp, _, err := rt.DoTraced(ctx, http.MethodPost, "/v1/place", bodies[rank], fps[rank],
			obs.TraceContext{TraceID: traceID})
		if err != nil || resp.Status != http.StatusOK {
			stats.failed++
			if stats.failed <= 5 {
				t.Errorf("request %d (vt %v, rank %d) failed: err=%v status=%v", i, vt, rank, err, respStatus(resp))
			}
			continue
		}
		if string(resp.Body) != string(want[rank]) {
			stats.failed++
			if stats.failed <= 5 {
				t.Errorf("request %d (rank %d): fleet answer differs from oracle", i, rank)
			}
			continue
		}
		checkTrace(t, rt, &stats, traceID, i, resp.Header.Get("X-Pesto-Replica"), stitchEvery)
		hit := resp.Header.Get("X-Pesto-Cache") == "hit"
		if hit {
			stats.hits++
		} else {
			stats.misses++
		}
		switch {
		case vt < preKillEnd:
			stats.preTotal++
			if hit {
				stats.preHits++
			}
		case vt >= postRejoinStart:
			stats.postTotal++
			if hit {
				stats.postHits++
			}
		}
	}
	stats.retries, stats.hedges, stats.failovers, stats.warmKeys = rt.Stats()
	return stats
}

// checkTrace audits the router's hop record of one successful chaos
// request: the trace must exist, carry at least one hop, and mark
// exactly one hop served — the replica named in the response's
// X-Pesto-Replica header. It folds the trace's pass/hedge/failover
// evidence into stats for the whole-run identity checks, and every
// stitchEvery-th request fetches the stitched Chrome trace too.
func checkTrace(t *testing.T, rt *Router, stats *chaosStats, traceID string, i int, servedReplica string, stitchEvery int) {
	t.Helper()
	rec, ok := rt.Trace(traceID)
	if !ok {
		t.Fatalf("request %d: no trace retained for %s", i, traceID)
	}
	if len(rec.Hops) == 0 {
		t.Fatalf("request %d: trace %s has no hops", i, traceID)
	}
	maxPass, served := 0, 0
	for _, h := range rec.Hops {
		if h.Pass > maxPass {
			maxPass = h.Pass
		}
		if h.Kind == "hedge" {
			stats.traceHedgeHops++
		}
		if h.Served {
			served++
			if h.Replica != servedReplica {
				t.Fatalf("request %d: served hop names replica %s, response header says %s", i, h.Replica, servedReplica)
			}
			if h.Replica != rec.Owner {
				stats.traceFailovers++
			}
		}
	}
	if served != 1 {
		t.Fatalf("request %d: trace %s marks %d hops served, want exactly 1", i, traceID, served)
	}
	stats.traceMaxPass += int64(maxPass)
	if i%stitchEvery != 0 {
		return
	}
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/requests/"+traceID+"/trace", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("request %d: stitched trace fetch for %s: status %d: %s", i, traceID, w.Code, w.Body.String())
	}
	body := w.Body.String()
	if !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, "fleet router") {
		t.Fatalf("request %d: stitched trace for %s lacks router lane: %.200s", i, traceID, body)
	}
	stats.stitched++
}

func respStatus(r *Response) int {
	if r == nil {
		return 0
	}
	return r.Status
}

// TestFleetChaosDeterministicZeroFailures is the fleet's core
// robustness claim, sized for CI (override with PESTO_CHAOS_REQUESTS):
// across two kills, two cold rejoins and a probe blackhole, no request
// fails, every plan matches the single-replica oracle byte-for-byte,
// and the post-rejoin cache hit rate recovers to >=90% of the
// pre-kill rate. The "Determin" name places it in the GOMAXPROCS CI
// matrix: the guarantees hold at any parallelism.
func TestFleetChaosDeterministicZeroFailures(t *testing.T) {
	requests := 2000
	if v := os.Getenv("PESTO_CHAOS_REQUESTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 100 {
			t.Fatalf("PESTO_CHAOS_REQUESTS=%q invalid", v)
		}
		requests = n
	}
	stats := runChaos(t, requests)
	if stats.failed != 0 {
		t.Fatalf("%d of %d requests failed (replay: spec=%q seed=%d requests=%d)",
			stats.failed, stats.requests, chaosSpec, chaosSeed, requests)
	}
	if stats.failovers == 0 {
		t.Fatal("chaos run saw no failovers: the schedule did not exercise the fleet")
	}
	// Hop accounting: the router's counters must be fully explained by
	// the hop spans in the per-request traces. With every request
	// succeeding, retries == Σ max hop pass; hedging is disabled, so
	// both views must report zero; failovers == traces served off-owner.
	if stats.retries != stats.traceMaxPass {
		t.Fatalf("router counted %d retries but traces account for %d extra passes", stats.retries, stats.traceMaxPass)
	}
	if stats.hedges != 0 || stats.traceHedgeHops != 0 {
		t.Fatalf("hedging disabled but router counted %d hedges, traces recorded %d hedge hops", stats.hedges, stats.traceHedgeHops)
	}
	if stats.failovers != stats.traceFailovers {
		t.Fatalf("router counted %d failovers but traces show %d off-owner serves", stats.failovers, stats.traceFailovers)
	}
	if stats.stitched == 0 {
		t.Fatal("no stitched traces fetched")
	}
	if stats.warmKeys == 0 {
		t.Fatal("no warm-sync keys installed: rejoin path not exercised")
	}
	pre := stats.hitRate(stats.preHits, stats.preTotal)
	post := stats.hitRate(stats.postHits, stats.postTotal)
	if stats.preTotal == 0 || stats.postTotal == 0 {
		t.Fatalf("empty measurement window: pre %d, post %d", stats.preTotal, stats.postTotal)
	}
	if post < 0.9*pre {
		t.Fatalf("hit rate did not recover: pre-kill %.3f, post-rejoin %.3f (want >= 90%%)", pre, post)
	}
	t.Logf("chaos: %d requests, 0 failed, hit rate pre %.3f post %.3f, %d failovers, %d retries, %d warm-synced keys, %d stitched traces",
		stats.requests, pre, post, stats.failovers, stats.retries, stats.warmKeys, stats.stitched)
}
