// Package service turns the Pesto placement pipeline into a
// long-running placement-as-a-service daemon: clients POST a
// computation graph (the internal/graph JSON codec) plus options and
// receive a verified plan as deterministic JSON.
//
// The paper's solves are expensive by design (CPLEX minutes on large
// graphs); the whole point of a serving layer is to pay that cost once
// and amortize it. Three mechanisms do the amortizing:
//
//   - A content-addressed plan cache keyed by the graph's canonical
//     fingerprint plus the normalized options, with LRU eviction and
//     singleflight fill: N concurrent requests for one graph trigger
//     exactly one solve, and repeat requests are answered from memory
//     with byte-identical bodies.
//   - Admission control: bounded solver concurrency, a bounded wait
//     queue, and per-request deadlines mapped onto the degradation
//     ladder's entry rung (tight budget → heuristic rung, generous →
//     exact ILP). Saturation answers 429/503 with Retry-After instead
//     of queueing unboundedly.
//   - Every cache-filling solve runs with verification on: a plan that
//     fails the independent invariant checker never enters the cache,
//     so a poisoned cache entry is impossible.
//
// The package uses only the standard library (net/http, no deps) and
// exposes /v1/place, /v1/trace, /healthz and a hand-rolled Prometheus
// /metrics. See DESIGN.md, "Serving model".
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pesto/internal/flight"
	"pesto/internal/graph"
	"pesto/internal/obs"
	"pesto/internal/placement"
	"pesto/internal/sim"
	"pesto/internal/trace"
)

// Config sizes the daemon. The zero value of every field means "use
// the default".
type Config struct {
	// MaxConcurrentSolves bounds simultaneously running solves; zero
	// means 2. Each solve itself fans out over Parallel workers, so
	// total solver CPU ≈ MaxConcurrentSolves × Parallel.
	MaxConcurrentSolves int
	// QueueDepth bounds requests waiting for a solver slot; zero means
	// 8, negative means no queue at all. Requests beyond slots+queue
	// get 429.
	QueueDepth int
	// CacheEntries bounds the plan cache, and the memo of decoded
	// request bodies with it; zero means 256.
	CacheEntries int
	// DefaultBudget is the solve budget for requests that set none;
	// zero means 10s.
	DefaultBudget time.Duration
	// MaxBudget caps any requested budget; zero means 60s.
	MaxBudget time.Duration
	// Parallel is the per-solve worker-pool width handed to the
	// placement pipeline; zero means GOMAXPROCS.
	Parallel int
	// MaxBodyBytes bounds request bodies; zero means 32 MiB.
	MaxBodyBytes int64
	// MaxGraphNodes bounds accepted graph sizes; zero means 50000.
	MaxGraphNodes int
	// Logger, when set, receives one structured line per telemetry
	// record (JSONL when backed by slog.NewJSONHandler) with the request
	// ID on every line. Nil disables request logging.
	Logger *slog.Logger
	// SpanHistory bounds how many recent requests keep their span dumps
	// for GET /v1/requests/{id}/spans; zero means 64.
	SpanHistory int
	// FlightDir is where the flight recorder persists triggered repro
	// bundles; empty keeps captures in memory only (still counted and
	// visible in /metrics, not written to disk).
	FlightDir string
	// FlightMaxBundles caps bundle files written per process; zero
	// means 64.
	FlightMaxBundles int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentSolves <= 0 {
		c.MaxConcurrentSolves = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 60 * time.Second
	}
	if c.MaxBudget < c.DefaultBudget {
		c.DefaultBudget = c.MaxBudget
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = maxBodyBytes
	}
	if c.MaxGraphNodes <= 0 {
		c.MaxGraphNodes = maxGraphNodes
	}
	if c.SpanHistory <= 0 {
		c.SpanHistory = 64
	}
	return c
}

// The daemon's fixed limits. A fleet router decodes with the same
// ones, by passing zero limits to DecodePlaceRequest.
const (
	// maxBodyBytes and maxGraphNodes bound a request body and the graph
	// it carries.
	maxBodyBytes  = 32 << 20
	maxGraphNodes = 50000
	// bodyPrealloc caps what a declared Content-Length allocates before
	// any of the body has arrived: a client that declares 32 MiB and
	// sends nothing holds 64 KiB, and a larger body grows its buffer
	// only as its bytes arrive.
	bodyPrealloc = 64 << 10
	// retryAfterSec is the back-off hint, in seconds, returned with
	// 429/503.
	retryAfterSec = 1
	// baseGraphEntries bounds the resident base-graph store backing
	// POST /v1/place/delta. Evicted bases make deltas against them 404
	// (clients fall back to a full place); plans are unaffected, they
	// live in the plan cache.
	baseGraphEntries = 128
)

// Server is the placement-as-a-service daemon. Construct with New,
// mount as an http.Handler, and Drain before exit.
type Server struct {
	cfg     Config
	cache   *planCache
	bases   *baseStore
	decoded *obs.LRU[[32]byte, decodedRequest] // accepted bodies by SHA-256 (decode)
	admit   *admission
	met     *metrics
	mux     *http.ServeMux
	spans   *obs.LRU[string, []obs.Record]
	flight  *flight.Recorder
	slo     *sloTracker

	// baseCtx bounds detached cache-fill solves; cancel aborts them
	// when a drain deadline expires (the hard stop).
	baseCtx context.Context
	cancel  context.CancelFunc
	// solves tracks in-flight solve work for graceful drain. solveMu
	// orders registration against Drain: a WaitGroup counter may not go
	// 0→1 concurrently with Wait, so beginSolve registers under the
	// same lock Drain takes before waiting — a solve either registered
	// before the drain began or is rejected.
	solveMu  sync.Mutex
	solves   sync.WaitGroup
	draining atomic.Bool
}

// errDraining rejects solve work that arrives after Drain began.
var errDraining = errors.New("server draining")

// beginSolve registers one unit of solve work, unless draining. It is
// the *single* drain gate: handlers do not pre-check the draining flag
// (a request admitted between such a check and registration would race
// Drain), so every solve-shaped request takes exactly one consistent
// path to its 503 — errDraining surfacing out of the solve. Cache hits
// keep being served during drain; only new solve work is refused.
// The returned release func is non-nil exactly when err is nil.
func (s *Server) beginSolve() (release func(), err error) {
	s.solveMu.Lock()
	defer s.solveMu.Unlock()
	if s.draining.Load() {
		return nil, errDraining
	}
	s.solves.Add(1)
	return s.solves.Done, nil
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newPlanCache(cfg.CacheEntries),
		bases:   newBaseStore(baseGraphEntries),
		decoded: obs.NewLRU[[32]byte, decodedRequest](cfg.CacheEntries),
		admit:   newAdmission(cfg.MaxConcurrentSolves, cfg.QueueDepth),
		met:     newMetrics(),
		mux:     http.NewServeMux(),
		spans:   obs.NewLRU[string, []obs.Record](cfg.SpanHistory),
		flight: flight.New(flight.Config{
			Dir:        cfg.FlightDir,
			MaxBundles: cfg.FlightMaxBundles,
		}),
		slo: newSLOTracker(nil),
	}
	// A fast-burning SLO is itself a flight-recorder trigger: the
	// bundle carries the ring (recent spans across requests) even
	// though no single request is to blame.
	s.slo.onFastBurn = func(slo string, fast, slow float64) {
		s.flight.Capture(flight.Bundle{
			Trigger: "slo-fast-burn",
			Detail:  fmt.Sprintf("slo %s burning %.1fx budget (5m) / %.1fx (1h)", slo, fast, slow),
		})
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.met.queueDepth = s.admit.queueLen
	s.met.inFlight = s.admit.inFlight
	s.met.cacheEntries = func() int64 { return int64(s.cache.len()) }
	s.met.cacheEvictions = s.cache.plans.Evictions
	s.met.sloSnapshot = s.slo.snapshot
	s.met.flightStats = s.flight.Stats
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	s.mux.HandleFunc("POST /v1/place/delta", s.handleDelta)
	s.mux.HandleFunc("POST /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/cache/export", s.handleCacheExport)
	s.mux.HandleFunc("POST /v1/cache/import", s.handleCacheImport)
	s.mux.HandleFunc("GET /v1/requests/{id}/spans", s.handleSpans)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting solve requests and waits for in-flight solves
// to finish. If ctx expires first, outstanding solves are cancelled
// (the hard stop) and ctx's error is returned; the call still waits
// for them to unwind before returning, so no solver goroutine outlives
// Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.solveMu.Lock()
	s.draining.Store(true)
	s.solveMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.solves.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// beginTelemetry opens the request's telemetry scope: it resolves the
// request ID (echoed on the response immediately, so error replies
// carry it too), builds a per-request recorder over a bounded memory
// sink plus the configured logger, and returns the context carrying
// the recorder along with the finish hook that flushes counters,
// retains the span dump for /v1/requests/{id}/spans, folds solver
// progress into /metrics and emits the summary log line.
func (s *Server) beginTelemetry(w http.ResponseWriter, r *http.Request, endpoint string) (ctx context.Context, rid string, finish func(outcome string)) {
	rid = requestID(r)
	w.Header().Set("X-Request-ID", rid)
	// Sinks: the per-request bounded memory sink (the span dump), the
	// process-wide flight-recorder ring (always on), and optionally the
	// structured logger.
	sink := obs.NewBoundedMemorySink(requestSinkLimit)
	sinks := []obs.Sink{sink, s.flight}
	var logger *slog.Logger
	if s.cfg.Logger != nil {
		logger = s.cfg.Logger.With("requestId", rid, "endpoint", endpoint)
		sinks = append(sinks, obs.NewSlogSink(logger))
	}
	rec := obs.NewRecorder(sinks...)
	// A fleet router hop arrives with an X-Pesto-Trace context; echo it
	// and tag this request's telemetry with it, so the stitched trace
	// and the span dump agree on which hop the records belong to.
	var tc obs.TraceContext
	if h := r.Header.Get(obs.TraceHeader); h != "" {
		if parsed, err := obs.ParseTraceHeader(h); err == nil {
			tc = parsed
			w.Header().Set(obs.TraceHeader, h)
			rec.Point("fleet.hop",
				obs.String("traceId", tc.TraceID),
				obs.Int("hop", int64(tc.Hop)))
		}
	}
	start := time.Now()
	finish = func(outcome string) {
		rec.FlushCounters()
		s.spans.Put(rid, sink.Records())
		s.met.solverProgress(rec.Counter("ilp.nodes"), rec.Counter("lp.pivots"), rec.Counter("ilp.incumbents"),
			rec.Counter("lp.solves"), rec.Counter("lp.warmstart.hits"), rec.Counter("lp.warmstart.misses"))
		if logger != nil {
			logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
				slog.String("outcome", outcome),
				slog.Int64("durUs", time.Since(start).Microseconds()))
		}
	}
	ctx = obs.Into(r.Context(), rec)
	ctx = withReqMeta(ctx, reqMeta{rid: rid, traceID: tc.TraceID})
	return ctx, rid, finish
}

// handlePlace serves POST /v1/place: decode, normalize, answer from
// the cache or solve once, and reply with the deterministic response
// body. Cache status and solve wall-clock travel in headers
// (X-Pesto-Cache, X-Pesto-Solve-Ms) so identical requests stay
// byte-identical in the body.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	ctx, rid, finish := s.beginTelemetry(w, r, "place")
	req, err := s.decode(r)
	if err != nil {
		finish(s.httpError(w, "place", rid, err))
		return
	}
	body, hit, err := s.respond(ctx, req.graph, req.fp, req.opts)
	if err != nil {
		finish(s.httpError(w, "place", rid, err))
		return
	}
	// A successfully placed graph becomes a valid base for
	// POST /v1/place/delta — hits included, so residency follows
	// traffic across restarts of the client, not just cold solves.
	s.registerBase(req.fp, req.graph, body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pesto-Cache", cacheStatus(hit))
	w.Write(body)
	s.met.request("place", "ok")
	s.met.cacheEvent(cacheStatus(hit))
	s.slo.observe("availability", false)
	finish("ok")
}

// handleTrace serves POST /v1/trace: the same request body as
// /v1/place, answered with the Chrome Trace Event timeline
// (chrome://tracing, Perfetto) of one simulated training step under
// the plan the place path would return — same cache, same admission.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ctx, rid, finish := s.beginTelemetry(w, r, "trace")
	req, err := s.decode(r)
	if err != nil {
		finish(s.httpError(w, "trace", rid, err))
		return
	}
	body, hit, err := s.respond(ctx, req.graph, req.fp, req.opts)
	if err != nil {
		finish(s.httpError(w, "trace", rid, err))
		return
	}
	var resp PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		finish(s.httpError(w, "trace", rid, fmt.Errorf("decode cached response: %w", err)))
		return
	}
	sys := req.opts.system()
	step, err := sim.Run(req.graph, sys, resp.Plan)
	if err != nil {
		finish(s.httpError(w, "trace", rid, fmt.Errorf("simulate for trace: %w", err)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pesto-Cache", cacheStatus(hit))
	w.Header().Set("Content-Disposition", `attachment; filename="pesto-trace.json"`)
	if err := trace.WriteChromeTrace(w, req.graph, sys, resp.Plan, step); err != nil {
		// Headers are gone; nothing recoverable. Count it and move on.
		s.met.request("trace", "error")
		s.slo.observe("availability", true)
		finish("error")
		return
	}
	s.met.request("trace", "ok")
	s.met.cacheEvent(cacheStatus(hit))
	s.slo.observe("availability", false)
	finish("ok")
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"queueDepth":     s.admit.queueLen(),
		"inFlightSolves": s.admit.inFlight(),
		"cacheEntries":   s.cache.len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
}

// decodedRequest is one accepted solve-shaped request: its graph, its
// normalized options and the graph's fingerprint. The graph is shared
// read-only by every request that sent the same bytes.
type decodedRequest struct {
	graph *graph.Graph
	opts  RequestOptions
	fp    [32]byte
}

// decode reads, validates and normalizes one solve-shaped request.
// Accepted bodies are memoised under the SHA-256 of their exact bytes,
// so a repeated body — what a cache hit usually is — costs a hash
// instead of a graph decode and a fingerprint. The key is a content
// address of the bytes, options included, and only decodes accepted
// under this server's limits are kept, so the memo answers exactly
// what decoding would; a rejected body is decoded, and rejected the
// same way, every time it is sent.
func (s *Server) decode(r *http.Request) (decodedRequest, error) {
	data, err := ReadBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		return decodedRequest{}, err
	}
	digest := sha256.Sum256(data)
	if req, ok := s.decoded.Get(digest); ok {
		return req, nil
	}
	pr, err := DecodePlaceBody(data, s.cfg.MaxGraphNodes)
	if err != nil {
		return decodedRequest{}, err
	}
	opts, err := pr.Options.normalized(s.cfg)
	if err != nil {
		return decodedRequest{}, err
	}
	req := decodedRequest{graph: pr.Graph, opts: opts, fp: pr.Graph.Fingerprint()}
	s.decoded.Put(digest, req)
	return req, nil
}

// respond produces the deterministic response body for a normalized
// request whose graph g has fingerprint fp: from the cache when
// possible, by solving otherwise.
func (s *Server) respond(ctx context.Context, g *graph.Graph, fp [32]byte, opts RequestOptions) (body []byte, hit bool, err error) {
	key := opts.cacheKey(fp)
	if opts.NoCache {
		// Uncached solves run entirely under the request context:
		// client disconnect aborts the solve (leak_test.go in
		// internal/placement proves nothing outlives it).
		body, err = s.solve(ctx, g, fp, key, opts)
		return body, false, err
	}
	return s.cache.getOrFill(ctx, key, fp, func(interest context.Context) ([]byte, error) {
		// Cache fills run on their own goroutine, detached from any one
		// request's context: with singleflight, followers may be waiting
		// on this solve, so the first requester hanging up must not kill
		// their answer. The fill is bounded by the solve budget (plus
		// ladder slack), the server's own lifetime, and the interest
		// context — which the cache cancels only when *every* waiter has
		// abandoned the key, so a solve nobody wants frees its solver
		// slot instead of running to completion.
		fillCtx, cancel := context.WithTimeout(s.baseCtx, 2*opts.budget()+5*time.Second)
		defer cancel()
		stop := context.AfterFunc(interest, cancel)
		defer stop()
		// Detaching drops the request context's values too, so the
		// requester's recorder is re-injected: the fill's spans and
		// solver counters still land in its telemetry. The request
		// metadata rides along for the flight recorder's bundles.
		fillCtx = obs.Into(fillCtx, obs.From(ctx))
		fillCtx = withReqMeta(fillCtx, reqMetaFrom(ctx))
		return s.solve(fillCtx, g, fp, key, opts)
	})
}

// solve runs one admitted, verified placement and serializes the
// deterministic response body.
func (s *Server) solve(ctx context.Context, g *graph.Graph, fp, key [32]byte, opts RequestOptions) ([]byte, error) {
	endSolve, err := s.beginSolve()
	if err != nil {
		return nil, err
	}
	defer endSolve()
	release, err := s.admit.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	start := time.Now()
	res, err := placement.PlaceMultiGPU(ctx, g, opts.system(), opts.placeOptions(s.cfg))
	elapsed := time.Since(start)
	if err != nil {
		s.met.observeSolve(elapsed, "error")
		if errors.Is(err, placement.ErrVerification) {
			// A verification failure is exactly what the flight recorder
			// exists for: capture the full repro before the error
			// propagates.
			s.captureBundle(ctx, "verify-failure", err.Error(), g, fp, opts, "", elapsed, 0, nil)
		}
		return nil, err
	}
	stage := res.Provenance.Stage.String()
	s.met.observeSolve(elapsed, stage)
	s.met.planServed(stage)
	s.slo.observeLatency(stage, elapsed)
	if pi := res.Provenance.Pipeline; pi != nil {
		s.met.pipelinePlanServed(pi.Schedule, pi.Stages, pi.Bubble)
	}

	body, err := json.Marshal(placeResponse(fp, key, res))
	if err != nil {
		return nil, err
	}
	// Flight-recorder triggers, checked against the rolling baseline
	// after the solve is already serialized (captures never delay or
	// fail a response). A ladder collapse to the last rung outranks a
	// merely slow solve.
	slow, p99 := s.flight.SlowSolve(elapsed)
	switch {
	case res.Provenance.Degraded && res.Provenance.Stage == placement.StageFallback:
		s.captureBundle(ctx, "degraded-fallback", "ladder degraded to "+stage,
			g, fp, opts, stage, elapsed, p99, body)
	case slow:
		s.captureBundle(ctx, "slow-solve",
			fmt.Sprintf("solve %v vs rolling p99 %v", elapsed, p99),
			g, fp, opts, stage, elapsed, p99, body)
	}
	return body, nil
}

// placeResponse builds the deterministic response for one solve
// result. It is shared by the serving path and bundle replay, so a
// replayed solve reproduces the exact served bytes.
func placeResponse(fp, key [32]byte, res *placement.Result) PlaceResponse {
	return PlaceResponse{
		Fingerprint: hex.EncodeToString(fp[:]),
		CacheKey:    hex.EncodeToString(key[:]),
		Plan:        res.Plan,
		Stage:       res.Provenance.Stage.String(),
		Degraded:    res.Provenance.Degraded,
		MakespanNs:  int64(res.SimulatedMakespan),
		PredictedNs: int64(res.PredictedMakespan),
		Verified:    true, // placeOptions forces Verify; failures error out above
		Pipeline:    res.Provenance.Pipeline,
	}
}

// captureBundle snapshots one triggered repro bundle: the exact graph
// and normalized options (replayable by `pesto -replay-bundle`), the
// served response bytes when one exists, the request's solver counters
// and the flight ring. Failures to capture are deliberately silent —
// the flight recorder must never fail a request.
func (s *Server) captureBundle(ctx context.Context, trigger, detail string, g *graph.Graph,
	fp [32]byte, opts RequestOptions, stage string, elapsed, p99 time.Duration, respBody []byte) {
	var gbuf bytes.Buffer
	if err := g.WriteJSON(&gbuf); err != nil {
		return
	}
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		return
	}
	meta := reqMetaFrom(ctx)
	b := flight.Bundle{
		Trigger:       trigger,
		Detail:        detail,
		RequestID:     meta.rid,
		TraceID:       meta.traceID,
		Fingerprint:   hex.EncodeToString(fp[:]),
		Stage:         stage,
		Seed:          opts.Seed,
		SolveNs:       elapsed.Nanoseconds(),
		BaselineP99Ns: p99.Nanoseconds(),
		Graph:         gbuf.Bytes(),
		Options:       optsJSON,
		Replayable:    true,
	}
	if len(respBody) > 0 {
		b.Response = json.RawMessage(respBody)
	}
	if c := obs.From(ctx).Counters(); len(c) > 0 {
		b.Counters = c
	}
	s.flight.Capture(b)
}

// httpError maps an error onto its status code, emits the JSON error
// body and records the outcome metric. It returns the outcome label so
// callers can close their telemetry scope with it.
func (s *Server) httpError(w http.ResponseWriter, endpoint, rid string, err error) string {
	var code int
	var outcome string
	switch {
	case errors.Is(err, ErrBadRequest):
		code, outcome = http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrTooLarge):
		code, outcome = http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, ErrUnknownBase):
		code, outcome = http.StatusNotFound, "unknown_base"
	case errors.Is(err, ErrSaturated):
		code, outcome = http.StatusTooManyRequests, "saturated"
	case errors.Is(err, ErrQueueTimeout):
		code, outcome = http.StatusServiceUnavailable, "queue_timeout"
	case errors.Is(err, errDraining):
		code, outcome = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code, outcome = http.StatusServiceUnavailable, "cancelled"
	case errors.Is(err, placement.ErrUnsupportedSystem),
		errors.Is(err, placement.ErrNoPlacement),
		errors.Is(err, placement.ErrVerification),
		errors.Is(err, sim.ErrOOM),
		errors.Is(err, sim.ErrBadPlacement):
		code, outcome = http.StatusUnprocessableEntity, "unprocessable"
	default:
		code, outcome = http.StatusInternalServerError, "error"
	}
	s.reject(w, endpoint, rid, code, outcome, err)
	return outcome
}

// reject writes one JSON error response with overload hints. The
// request ID rides in the body so clients quoting an error can be
// correlated with logs and span dumps; 429/503 responses carry the
// Retry-After hint both as the standard header and as parseable
// seconds in the body (retryAfterSec), so clients that only see the
// body can still back off correctly.
func (s *Server) reject(w http.ResponseWriter, endpoint, rid string, code int, outcome string, err error) {
	w.Header().Set("Content-Type", "application/json")
	resp := ErrorResponse{Error: err.Error(), RequestID: rid}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		resp.RetryAfterSec = retryAfterSec
		w.Header().Set("Retry-After", strconv.FormatInt(resp.RetryAfterSec, 10))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
	s.met.request(endpoint, outcome)
	// Availability SLO: only server-side failures burn the error
	// budget. 4xx rejections are the client's problem.
	s.slo.observe("availability", code >= 500)
}

func cacheStatus(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// WarmFromDir pre-fills the cache from a directory of graph JSON files
// (*.json, the WriteGraph schema), solving each with default options.
// It returns the number of graphs warmed; the first decode or solve
// error aborts the warm-up. Deterministic order (sorted filenames) so
// warm-up is reproducible.
func (s *Server) WarmFromDir(ctx context.Context, dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, err
	}
	sort.Strings(names)
	warmed := 0
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return warmed, err
		}
		f, err := os.Open(name)
		if err != nil {
			return warmed, err
		}
		g, err := graph.ReadJSON(f)
		f.Close()
		if err != nil {
			return warmed, fmt.Errorf("warm %s: %w", name, err)
		}
		opts, err := RequestOptions{}.normalized(s.cfg)
		if err != nil {
			return warmed, err
		}
		if _, _, err := s.respond(ctx, g, g.Fingerprint(), opts); err != nil {
			return warmed, fmt.Errorf("warm %s: %w", name, err)
		}
		warmed++
	}
	return warmed, nil
}

// CacheStats reports fill/eviction counters for tests and operators.
func (s *Server) CacheStats() (fills, evictions int64, entries int) {
	return s.cache.fills.Load(), s.cache.plans.Evictions(), s.cache.len()
}
