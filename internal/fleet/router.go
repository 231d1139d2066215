package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pesto/internal/engine"
	"pesto/internal/obs"
	"pesto/internal/service"
	"pesto/internal/trace"
)

// Config sizes the fleet router. The zero value of every field means
// "use the default".
type Config struct {
	// Seed drives the backoff jitter. Jitter is a pure hash of
	// (seed, fingerprint, pass) — replayable, no shared random stream.
	Seed int64
	// DisableHedge turns hedging off (the chaos determinism harness
	// uses it to keep request counts exact).
	DisableHedge bool
	// ProbeFailures is how many consecutive failed /healthz probes mark
	// a replica down; zero means 2. The first healthy probe of a down
	// replica warm-syncs its keyspace before marking it up.
	ProbeFailures int
	// Clock and Sleep are the router's time sources, injectable so the
	// chaos harness runs on a virtual clock. Nil means time.Now and a
	// context-aware timer sleep.
	Clock func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

// The router's fixed tuning.
const (
	// vnodes is the number of virtual nodes per replica on the hash ring.
	vnodes = 64
	// passes is how many full failover sweeps of the ring a request
	// makes before giving up, sleeping between sweeps.
	passes = 3
	// baseBackoff and maxBackoff bound the exponential between-pass
	// backoff. The actual sleep also honors any Retry-After a replica
	// returned during the failed pass.
	baseBackoff = 25 * time.Millisecond
	maxBackoff  = time.Second
	// hedgeMin and hedgeMax clamp the latency-percentile hedge trigger:
	// a request outliving the tracked p95, clamped to this band, is
	// hedged to the next ring replica.
	hedgeMin = 25 * time.Millisecond
	hedgeMax = 2 * time.Second
	// Every probeInterval each replica's /healthz is probed with
	// probeTimeout.
	probeInterval = 500 * time.Millisecond
	probeTimeout  = time.Second
	// traceHistory is how many recent traces the router retains for
	// GET /v1/requests/{id}/trace.
	traceHistory = 1024
	// batchMaxBytes bounds a POST /v1/place/batch body: four of the
	// 32 MiB place bodies a replica accepts. Each entry is then held to
	// the replicas' own body and graph-size limits.
	batchMaxBytes = 128 << 20
)

// replicaBreaker is every replica's breaker: one failing at least half of
// at least 8 requests within 5s opens for 2s, then re-admits via one
// half-open probe.
var replicaBreaker = breakerConfig{
	window:     5 * time.Second,
	minSamples: 8,
	failFrac:   0.5,
	cooldown:   2 * time.Second,
}

func (c Config) withDefaults() Config {
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// replica is one backend plus the router's live view of it.
type replica struct {
	b  Backend
	br *breaker

	mu         sync.Mutex
	up         bool
	probeFails int
}

func (r *replica) isUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.up
}

// Router fronts a set of pestod replicas: it routes each request to
// the ring owner of its graph fingerprint, fails over along the ring
// on errors and saturation, hedges slow requests, retires dead
// replicas (probes + breakers), and warm-syncs rejoining ones. Mount
// it as an http.Handler; it serves the same /v1/place surface as a
// single pestod plus POST /v1/place/batch.
type Router struct {
	cfg     Config
	ring    *ring
	reps    []*replica
	repByID map[string]*replica
	mux     *http.ServeMux
	met     *fleetMetrics
	lat     *obs.Ring[time.Duration] // answered attempts' latencies, for hedgeDelay
	pool    *engine.Pool
	traces  *obs.Store[*liveTrace]
}

// New builds a Router over the backends. Backend IDs must be non-empty
// and distinct: they are ring coordinates and metric labels.
func New(cfg Config, backends ...Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("fleet: at least one backend required")
	}
	ids := make([]string, len(backends))
	seen := make(map[string]bool, len(backends))
	for i, b := range backends {
		id := b.ID()
		if id == "" || seen[id] {
			return nil, fmt.Errorf("fleet: backend IDs must be non-empty and distinct (got %q)", id)
		}
		seen[id] = true
		ids[i] = id
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		ring:    newRing(ids, vnodes),
		met:     newFleetMetrics(),
		lat:     obs.NewRing[time.Duration](hedgeWindow),
		mux:     http.NewServeMux(),
		pool:    engine.New(2 * len(backends)),
		traces:  obs.NewStore[*liveTrace](traceHistory),
		repByID: make(map[string]*replica, len(backends)),
	}
	for _, b := range backends {
		r := &replica{
			b:  b,
			up: true,
			br: newBreaker(replicaBreaker),
		}
		rt.reps = append(rt.reps, r)
		rt.repByID[b.ID()] = r
	}
	rt.met.replicaStates = rt.replicaStates
	rt.mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) { rt.handleProxy(w, r, "place", "/v1/place") })
	rt.mux.HandleFunc("POST /v1/trace", func(w http.ResponseWriter, r *http.Request) { rt.handleProxy(w, r, "trace", "/v1/trace") })
	rt.mux.HandleFunc("POST /v1/place/batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /v1/requests/{id}/trace", rt.handleTrace)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start launches the background prober; it stops when ctx ends.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.ProbeAll(ctx)
			}
		}
	}()
}

// ProbeAll runs one health-check round over every replica. The
// background prober calls it on a ticker; tests and the chaos harness
// call it directly to keep failure detection deterministic.
func (rt *Router) ProbeAll(ctx context.Context) {
	for _, r := range rt.reps {
		rt.probe(ctx, r)
	}
}

func (rt *Router) probe(ctx context.Context, r *replica) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	resp, err := r.b.Do(pctx, http.MethodGet, "/healthz", nil, nil)
	cancel()
	healthy := err == nil && resp.Status == http.StatusOK
	r.mu.Lock()
	if healthy {
		r.probeFails = 0
		if !r.up {
			// Dead → alive: warm-sync the replica's keyspace from its
			// peers before routing traffic to it, so rejoin costs a sync,
			// not a cold-cache stampede of re-solves.
			r.mu.Unlock()
			n := rt.warmSync(ctx, r)
			rt.met.addWarmsyncKeys(int64(n))
			r.mu.Lock()
			r.up = true
		}
	} else {
		r.probeFails++
		if r.probeFails >= rt.cfg.ProbeFailures {
			r.up = false
		}
	}
	r.mu.Unlock()
}

// warmSync pulls the target replica's keyspace arcs from every live
// peer and imports them, returning how many entries were installed.
// Failures are tolerated — a partial warm-sync just means more cache
// misses — because blocking rejoin on a flaky peer would turn one
// fault into two.
func (rt *Router) warmSync(ctx context.Context, target *replica) int {
	idx := -1
	for i, r := range rt.reps {
		if r == target {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	// Warm-sync is traced like client traffic: every export/import call
	// is a hop of one synthetic trace, so a rejoin's data movement is
	// reconstructable the same way a request's failover is.
	tc := obs.TraceContext{TraceID: "warmsync-" + obs.NewTraceID()}
	lt := newLiveTrace(tc, target.b.ID(), http.MethodPost, "/v1/cache/import")
	rt.traces.Put(tc.TraceID, lt)
	installed := 0
	for _, a := range rt.ring.arcs(idx) {
		for _, peer := range rt.reps {
			if peer == target || !peer.isUp() {
				continue
			}
			path := fmt.Sprintf("/v1/cache/export?lo=%d&hi=%d", a[0], a[1])
			resp, err := rt.syncDo(ctx, lt, peer, http.MethodGet, path, nil)
			if err != nil || resp.Status != http.StatusOK {
				continue
			}
			var exp struct {
				Entries []json.RawMessage `json:"entries"`
			}
			if json.Unmarshal(resp.Body, &exp) != nil || len(exp.Entries) == 0 {
				continue
			}
			ir, err := rt.syncDo(ctx, lt, target, http.MethodPost, "/v1/cache/import", resp.Body)
			if err != nil || ir.Status != http.StatusOK {
				continue
			}
			var res service.CacheImportResult
			if json.Unmarshal(ir.Body, &res) == nil {
				installed += res.Installed
			}
		}
	}
	return installed
}

// syncDo performs one warm-sync call as a recorded hop of lt.
func (rt *Router) syncDo(ctx context.Context, lt *liveTrace, r *replica, method, path string, body []byte) (*Response, error) {
	seq, hdrVal, reqID := lt.beginHop("warm-sync", r.b.ID(), 0, rt.cfg.Clock().UnixNano())
	hdr := make(http.Header)
	hdr.Set(obs.TraceHeader, hdrVal)
	hdr.Set("X-Request-ID", reqID)
	resp, err := r.b.Do(ctx, method, path, hdr, body)
	status := 0
	if resp != nil {
		status = resp.Status
	}
	lt.endHop(seq, rt.cfg.Clock().UnixNano(), status, err)
	return resp, err
}

// errNoCandidates marks a pass where no replica was even attemptable:
// everything down or breaker-open. The caller escalates to a
// last-resort pass that ignores the gates — during a total-outage
// *detection* window (probes blackholed, breakers open, replicas
// actually fine) requests must still get through.
var errNoCandidates = errors.New("fleet: no live replicas")

// Do routes one already-fingerprinted request through the fleet:
// ring-order failover within a pass, deadline-aware backoff between
// passes, hedging on slow replicas. It returns the first coherent
// replica response (any status < 500 except 429) or the last error.
// The request is traced under a fresh trace ID; callers that care
// which use DoTraced.
func (rt *Router) Do(ctx context.Context, method, path string, body []byte, fp [32]byte) (*Response, error) {
	resp, _, err := rt.DoTraced(ctx, method, path, body, fp, obs.TraceContext{})
	return resp, err
}

// DoTraced is Do under an explicit trace context: every backend
// attempt becomes a recorded hop carrying X-Pesto-Trace and a
// trace-derived X-Request-ID, retained for GET /v1/requests/{id}/trace.
// A zero tc gets a fresh trace ID; the ID used is returned either way.
func (rt *Router) DoTraced(ctx context.Context, method, path string, body []byte, fp [32]byte, tc obs.TraceContext) (*Response, string, error) {
	if !tc.Valid() {
		tc.TraceID = obs.NewTraceID()
	}
	order := rt.ring.successors(service.RingPoint(fp))
	lt := newLiveTrace(tc, rt.reps[order[0]].b.ID(), method, path)
	rt.traces.Put(tc.TraceID, lt)
	var lastErr error
	var retryAfter time.Duration
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			d := rt.backoff(pass-1, fp)
			if retryAfter > d {
				d = retryAfter
			}
			if err := rt.cfg.Sleep(ctx, d); err != nil {
				return nil, tc.TraceID, err
			}
			rt.met.addRetry()
			retryAfter = 0
		}
		resp, ra, err := rt.onePass(ctx, method, path, body, order, false, pass, lt)
		if resp != nil {
			return resp, tc.TraceID, nil
		}
		if errors.Is(err, errNoCandidates) {
			// Nothing attemptable under the gates — last resort, same pass.
			resp, ra, err = rt.onePass(ctx, method, path, body, order, true, pass, lt)
			if resp != nil {
				return resp, tc.TraceID, nil
			}
		}
		if ra > retryAfter {
			retryAfter = ra
		}
		if err != nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			return nil, tc.TraceID, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = errNoCandidates
	}
	return nil, tc.TraceID, lastErr
}

// Trace reads back the router's hop record of a recent trace.
func (rt *Router) Trace(id string) (TraceRecord, bool) {
	lt, ok := rt.traces.Get(id)
	if !ok {
		return TraceRecord{}, false
	}
	return lt.snapshot(), true
}

// onePass sweeps the ring order once. ignoreGates drops the liveness
// and breaker checks (the last-resort sweep).
func (rt *Router) onePass(ctx context.Context, method, path string, body []byte, order []int, ignoreGates bool, pass int, lt *liveTrace) (*Response, time.Duration, error) {
	kind := "first"
	switch {
	case ignoreGates:
		kind = "last-resort"
	case pass > 0:
		kind = "retry"
	}
	var lastErr error
	var retryAfter time.Duration
	attempted := false
	for i := 0; i < len(order); i++ {
		r := rt.reps[order[i]]
		if !ignoreGates && (!r.isUp() || !r.br.allow(rt.cfg.Clock())) {
			continue
		}
		attempted = true
		// Hedge target: the next live replica clockwise. The last-resort
		// sweep never hedges — it exists to minimize load, not latency.
		var hedge *replica
		hedgeIdx := -1
		if !rt.cfg.DisableHedge && !ignoreGates {
			for j := i + 1; j < len(order); j++ {
				if h := rt.reps[order[j]]; h.isUp() {
					hedge, hedgeIdx = h, j
					break
				}
			}
		}
		resp, servedBy, seq, err := rt.attempt(ctx, r, hedge, method, path, body, kind, pass, lt)
		if servedBy == hedge && hedge != nil {
			i = hedgeIdx // the hedge consumed the next candidate
		}
		if err != nil {
			lastErr = fmt.Errorf("replica %s: %w", servedBy.b.ID(), err)
			continue
		}
		if resp.Status == http.StatusTooManyRequests || resp.Status == http.StatusServiceUnavailable {
			if ra := parseRetryAfter(resp); ra > retryAfter {
				retryAfter = ra
			}
			lastErr = fmt.Errorf("replica %s: status %d", servedBy.b.ID(), resp.Status)
			continue
		}
		if resp.Status >= 500 {
			lastErr = fmt.Errorf("replica %s: status %d", servedBy.b.ID(), resp.Status)
			continue
		}
		if servedBy != rt.reps[order[0]] {
			rt.met.addFailover()
		}
		lt.markServed(seq)
		if resp.Header == nil {
			resp.Header = make(http.Header)
		}
		resp.Header.Set("X-Pesto-Replica", servedBy.b.ID())
		return resp, 0, nil
	}
	if !attempted {
		return nil, retryAfter, errNoCandidates
	}
	return nil, retryAfter, lastErr
}

// attemptResult is one in-flight request's outcome.
type attemptResult struct {
	resp *Response
	err  error
	rep  *replica
	dur  time.Duration
	seq  int
}

// attempt sends the request to prim, hedging to hedge (may be nil) if
// prim outlives the tracked latency percentile. The first coherent
// answer wins; returns which replica produced the returned result and
// the hop sequence number of that result.
func (rt *Router) attempt(ctx context.Context, prim, hedge *replica, method, path string, body []byte, kind string, pass int, lt *liveTrace) (*Response, *replica, int, error) {
	ch := make(chan attemptResult, 2)
	send := func(r *replica, hopKind string) {
		start := rt.cfg.Clock()
		seq, hdrVal, reqID := lt.beginHop(hopKind, r.b.ID(), pass, start.UnixNano())
		hdr := make(http.Header)
		hdr.Set(obs.TraceHeader, hdrVal)
		hdr.Set("X-Request-ID", reqID)
		resp, err := r.b.Do(ctx, method, path, hdr, body)
		now := rt.cfg.Clock()
		status := 0
		if resp != nil {
			status = resp.Status
		}
		lt.endHop(seq, now.UnixNano(), status, err)
		rt.met.observeHop(hopKind, now.Sub(start))
		r.br.record(now, err == nil && resp.Status < 500)
		ch <- attemptResult{resp: resp, err: err, rep: r, dur: now.Sub(start), seq: seq}
	}
	go send(prim, kind)
	if hedge == nil {
		res := <-ch
		rt.observeLatency(res)
		return res.resp, res.rep, res.seq, res.err
	}
	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	pending := 1
	select {
	case res := <-ch:
		rt.observeLatency(res)
		return res.resp, res.rep, res.seq, res.err
	case <-timer.C:
		if hedge.br.allow(rt.cfg.Clock()) {
			rt.met.addHedge()
			pending++
			go send(hedge, "hedge")
		}
	}
	var last attemptResult
	for pending > 0 {
		res := <-ch
		pending--
		last = res
		if answered(res) {
			break
		}
	}
	rt.observeLatency(last)
	if last.rep == hedge {
		rt.met.addHedgeWin()
	}
	return last.resp, last.rep, last.seq, last.err
}

// answered reports whether an attempt produced an answer the router
// can serve: no transport error, no 5xx and no 429 refusal.
func answered(res attemptResult) bool {
	return res.err == nil && res.resp.Status < 500 && res.resp.Status != http.StatusTooManyRequests
}

// observeLatency admits an answered attempt's latency to the hedge
// window. Refusals are left out: a saturated replica's fast 429s would
// otherwise pull the hedge delay down exactly when replicas refuse work.
func (rt *Router) observeLatency(res attemptResult) {
	if answered(res) {
		rt.lat.Add(res.dur)
	}
}

// hedgeWindow bounds the hedge-delay latency window: enough history
// for a stable p95, small enough that the fleet adapts to a latency
// regime change within a few hundred requests.
const hedgeWindow = 256

// hedgeDelay is how long an attempt runs before it is hedged: the
// nearest-rank p95 of recent answered attempts, clamped to
// [hedgeMin, hedgeMax]. With fewer than 8 samples it is hedgeMax —
// hedging waits until there is evidence of what "slow" means.
func (rt *Router) hedgeDelay() time.Duration {
	p, n := obs.Quantile(rt.lat, 95)
	switch {
	case n < 8:
		return hedgeMax
	case p < hedgeMin:
		return hedgeMin
	}
	return min(p, hedgeMax)
}

// backoffJitterSalt versions the jitter hash.
const backoffJitterSalt = "pesto/fleet-backoff/v1"

// backoff is the between-pass sleep: exponential in the pass number,
// clamped, with jitter in [0.5, 1.0) of the clamped value derived by
// hashing (seed, fingerprint, pass) — replayable under a fixed seed
// with no shared random stream, so concurrency can't perturb it.
func (rt *Router) backoff(pass int, fp [32]byte) time.Duration {
	d := baseBackoff << uint(pass)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	var buf [len(backoffJitterSalt) + 8 + 32 + 8]byte
	off := copy(buf[:], backoffJitterSalt)
	binary.LittleEndian.PutUint64(buf[off:], uint64(rt.cfg.Seed))
	off += 8
	off += copy(buf[off:], fp[:])
	binary.LittleEndian.PutUint64(buf[off:], uint64(pass))
	h := sha256.Sum256(buf[:])
	frac := binary.BigEndian.Uint64(h[:8]) % 1024
	half := d / 2
	return half + half*time.Duration(frac)/1024
}

// parseRetryAfter extracts a replica's backoff hint from a 429/503:
// the Retry-After header when present, the body's retryAfterSec
// otherwise (clients that only see bodies still back off; the router
// honors whichever survives the transport).
func parseRetryAfter(resp *Response) time.Duration {
	if resp.Header != nil {
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs >= 0 {
				return time.Duration(secs) * time.Second
			}
		}
	}
	var er struct {
		RetryAfterSec int64 `json:"retryAfterSec"`
	}
	if json.Unmarshal(resp.Body, &er) == nil && er.RetryAfterSec > 0 {
		return time.Duration(er.RetryAfterSec) * time.Second
	}
	return 0
}

// replicaStates snapshots per-replica condition for metrics and
// health.
func (rt *Router) replicaStates() []replicaState {
	out := make([]replicaState, 0, len(rt.reps))
	for _, r := range rt.reps {
		out = append(out, replicaState{id: r.b.ID(), up: r.isUp(), breaker: r.br.current()})
	}
	return out
}

// Stats reads the router's counters for tests and the chaos harness.
func (rt *Router) Stats() (retries, hedges, failovers, warmsyncKeys int64) {
	return rt.met.snapshot()
}

// handleProxy serves POST /v1/place and /v1/trace: decode just enough
// to learn the graph fingerprint, route the *original* body through
// the fleet, and relay the replica's answer verbatim (byte-identity
// with a single replica is the contract).
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request, endpoint, path string) {
	// The decoder holds the body to the replicas' own size limits; the
	// tee keeps the bytes it read for forwarding.
	var raw bytes.Buffer
	req, err := service.DecodePlaceRequest(io.TeeReader(r.Body, &raw), 0, 0)
	body := raw.Bytes()
	if err != nil {
		code, outcome := http.StatusBadRequest, "bad_request"
		if errors.Is(err, service.ErrTooLarge) {
			code, outcome = http.StatusRequestEntityTooLarge, "too_large"
		}
		rt.writeError(w, endpoint, code, outcome, err)
		return
	}
	// Adopt the client's trace context when it sent a valid one (a
	// fronting router, a test harness); mint a trace otherwise. The ID
	// is echoed so the caller can fetch the stitched trace afterwards.
	tc := clientTraceContext(r)
	w.Header().Set(obs.TraceHeader, tc.TraceID)
	resp, _, err := rt.DoTraced(r.Context(), http.MethodPost, path, body, req.Graph.Fingerprint(), tc)
	if err != nil {
		rt.writeError(w, endpoint, http.StatusServiceUnavailable, "unavailable", err)
		return
	}
	relay(w, resp)
	rt.met.request(endpoint, outcomeFor(resp.Status))
}

// clientTraceContext parses the request's X-Pesto-Trace, minting a
// fresh root context when the header is absent or malformed. Overlong
// IDs are rejected by the parser, which keeps derived per-hop request
// IDs inside the replicas' X-Request-ID length cap.
func clientTraceContext(r *http.Request) obs.TraceContext {
	tc, err := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	if err != nil {
		return obs.TraceContext{TraceID: obs.NewTraceID()}
	}
	return tc
}

// BatchRequest is the body of POST /v1/place/batch: a list of
// standalone /v1/place request bodies, answered positionally.
type BatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchResult is one entry's answer: the HTTP status a standalone
// /v1/place would have returned, plus its body verbatim.
type BatchResult struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the body of POST /v1/place/batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// batchKey identifies one deduplicable batch entry: same graph
// fingerprint and same options means same plan, so one upstream solve
// answers every duplicate.
type batchKey struct {
	fp   [32]byte
	opts service.RequestOptions
}

// handleBatch serves POST /v1/place/batch: entries with identical
// (fingerprint, options) collapse onto one upstream request, distinct
// entries fan out across the ring concurrently, and results come back
// in submission order.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, batchMaxBytes)
	if err != nil {
		rt.writeError(w, "batch", http.StatusRequestEntityTooLarge, "too_large", err)
		return
	}
	var breq BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		rt.writeError(w, "batch", http.StatusBadRequest, "bad_request",
			fmt.Errorf("decode batch: %v: %w", err, service.ErrBadRequest))
		return
	}
	if len(breq.Requests) == 0 {
		rt.writeError(w, "batch", http.StatusBadRequest, "bad_request",
			fmt.Errorf("empty batch: %w", service.ErrBadRequest))
		return
	}

	// First sweep: decode every entry, dedupe on (fingerprint, options).
	// Decode failures become per-entry 400 results rather than failing
	// the batch — one bad graph must not waste its neighbors' solves.
	type uniqueReq struct {
		fp   [32]byte
		body []byte
	}
	results := make([]BatchResult, len(breq.Requests))
	entryOf := make(map[batchKey]int) // key → index into uniques
	var uniques []uniqueReq
	entryUnique := make([]int, len(breq.Requests)) // entry → unique index, -1 = decode error
	for i, raw := range breq.Requests {
		req, err := service.DecodePlaceRequest(bytes.NewReader(raw), 0, 0)
		if err != nil {
			entryUnique[i] = -1
			eb, _ := json.Marshal(service.ErrorResponse{Error: err.Error()})
			status := http.StatusBadRequest
			if errors.Is(err, service.ErrTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			results[i] = BatchResult{Status: status, Body: eb}
			continue
		}
		key := batchKey{fp: req.Graph.Fingerprint(), opts: req.Options}
		u, ok := entryOf[key]
		if !ok {
			u = len(uniques)
			uniques = append(uniques, uniqueReq{fp: key.fp, body: raw})
			entryOf[key] = u
		}
		entryUnique[i] = u
	}
	rt.met.addBatch(int64(len(breq.Requests)), int64(len(breq.Requests)-len(uniques))-countNeg(entryUnique))

	// Fan out the unique requests across the ring. engine.Map returns
	// results in submission order, so the response is deterministic for
	// a fixed batch regardless of upstream concurrency. Each unique
	// entry is traced as `<batch trace>.b<unique>`, so the whole fan-out
	// is reconstructable from the batch's own trace ID.
	tc := clientTraceContext(r)
	w.Header().Set(obs.TraceHeader, tc.TraceID)
	type upstream struct {
		status int
		body   []byte
	}
	resps, _ := engine.Map(r.Context(), rt.pool, len(uniques), func(ctx context.Context, i int) (upstream, error) {
		utc := obs.TraceContext{TraceID: fmt.Sprintf("%s.b%d", tc.TraceID, i), Parent: tc.Parent}
		resp, _, err := rt.DoTraced(ctx, http.MethodPost, "/v1/place", uniques[i].body, uniques[i].fp, utc)
		if err != nil {
			eb, _ := json.Marshal(service.ErrorResponse{Error: err.Error()})
			return upstream{status: http.StatusServiceUnavailable, body: eb}, nil
		}
		return upstream{status: resp.Status, body: resp.Body}, nil
	})
	for i := range results {
		u := entryUnique[i]
		if u < 0 {
			continue
		}
		results[i] = BatchResult{Status: resps[u].Value.status, Body: json.RawMessage(resps[u].Value.body)}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(BatchResponse{Results: results})
	rt.met.request("batch", "ok")
}

func countNeg(xs []int) int64 {
	var n int64
	for _, x := range xs {
		if x < 0 {
			n++
		}
	}
	return n
}

// handleTrace serves GET /v1/requests/{id}/trace: the router's hop
// record of one recent trace, stitched with each serving replica's
// retained span dump into one Chrome Trace Event file — the router's
// hops as one process lane, every replica's solver spans as their own
// lanes, all aligned on the router's clock. Replicas that died or
// restarted since simply contribute an empty lane; the hop record
// itself always survives at the router.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	lt, ok := rt.traces.Get(id)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(service.ErrorResponse{Error: "no trace retained for id", RequestID: id})
		return
	}
	rec := lt.snapshot()
	dumps := make([][]obs.SpanRecord, len(rec.Hops))
	for i, h := range rec.Hops {
		rep := rt.repByID[h.Replica]
		if rep == nil {
			continue
		}
		resp, err := rep.b.Do(r.Context(), http.MethodGet, "/v1/requests/"+h.RequestID+"/spans", nil, nil)
		if err != nil || resp.Status != http.StatusOK {
			continue
		}
		var dump struct {
			Records []obs.SpanRecord `json:"records"`
		}
		if json.Unmarshal(resp.Body, &dump) != nil {
			continue
		}
		dumps[i] = dump.Records
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="pesto-fleet-trace.json"`)
	trace.WriteChromeTraceFleet(w, id, rec.Hops, dumps)
}

// handleHealth reports the router's view of the fleet. 200 while at
// least one replica takes traffic, 503 otherwise.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	states := rt.replicaStates()
	upCount := 0
	type repHealth struct {
		ID      string `json:"id"`
		Up      bool   `json:"up"`
		Breaker string `json:"breaker"`
	}
	reps := make([]repHealth, 0, len(states))
	for _, st := range states {
		if st.up {
			upCount++
		}
		reps = append(reps, repHealth{ID: st.id, Up: st.up, Breaker: breakerStateName(st.breaker)})
	}
	status, code := "ok", http.StatusOK
	switch {
	case upCount == 0:
		status, code = "down", http.StatusServiceUnavailable
	case upCount < len(states):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"status": status, "replicas": reps})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.met.write(w)
}

func (rt *Router) writeError(w http.ResponseWriter, endpoint string, code int, outcome string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(service.ErrorResponse{Error: err.Error()})
	rt.met.request(endpoint, outcome)
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := readAllLimited(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("read body: %v: %w", err, service.ErrTooLarge)
	}
	return body, nil
}

func readAllLimited(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// relay copies a replica response to the client, preserving the body
// verbatim and the headers that carry meaning across the fleet.
func relay(w http.ResponseWriter, resp *Response) {
	for _, h := range []string{"Content-Type", "X-Pesto-Cache", "X-Pesto-Replica", "Retry-After", "Content-Disposition"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

func outcomeFor(status int) string {
	switch {
	case status < 300:
		return "ok"
	case status < 500:
		return "client_error"
	default:
		return "upstream_error"
	}
}
