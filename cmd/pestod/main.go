// Command pestod serves Pesto placement over HTTP: POST a computation
// graph and receive a verified, deterministic placement plan. Repeat
// requests are answered from a content-addressed plan cache; admission
// control bounds solver load; /metrics exposes Prometheus text.
//
// Usage:
//
//	pestod [-addr :8080] [-solvers 2] [-queue 8] [-cache 256]
//	       [-budget 10s] [-max-budget 60s] [-parallel N]
//	       [-warm-dir graphs/] [-drain-timeout 30s]
//	       [-obs-log telemetry.jsonl] [-span-history 64]
//	       [-flight-dir bundles/]
//	       [-fleet N | -fleet-backends url1,url2,…]
//
// Endpoints:
//
//	POST /v1/place   solve (or replay) a placement; body {"graph":…,"options":…}
//	POST /v1/place/delta   incremental re-place of an edited graph; body
//	                 {"baseFingerprint":…,"edits":[…],"options":…} — the base
//	                 must have been placed here before (404 otherwise)
//	POST /v1/trace   same body as /v1/place; returns a Chrome Trace Event timeline
//	GET  /v1/requests/{id}/spans   span dump of a recent request by X-Request-ID
//	GET  /debug/flight   the flight recorder's always-on telemetry ring
//	GET  /healthz    liveness + queue/cache gauges
//	GET  /metrics    Prometheus text exposition
//	GET  /debug/pprof/   Go runtime profiles (heap, CPU, goroutines, …)
//
// The flight recorder is always on: the last few thousand telemetry
// records ride in a bounded ring, and a solve slower than its rolling
// p99, a collapse to the fallback rung, a verification failure or a
// fast-burning SLO captures a self-contained repro bundle under
// -flight-dir that `pesto -replay-bundle` re-executes.
//
// Fleet mode puts the fingerprint-routed replica fleet in front of the
// service: `-fleet N` runs N in-process replicas (each with its own
// solver pool and plan cache) behind a consistent-hash router with
// health probing, circuit breakers, retry/hedging, failover and
// warm-sync; `-fleet-backends` routes to external pestod processes
// over HTTP instead. The router serves /v1/place, /v1/trace,
// /v1/place/batch, /healthz, /metrics — and GET
// /v1/requests/{id}/trace, which stitches a traced request's
// per-replica span dumps into one cross-fleet Chrome trace.
//
// Every request carries an X-Request-ID (client-supplied or generated)
// echoed on the response, stamped into each -obs-log line and keying
// the retained span dump.
//
// SIGINT/SIGTERM drain gracefully: new solve requests get 503, in-flight
// solves finish (up to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pesto/internal/fleet"
	"pesto/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pestod:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pestod", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		solvers  = fs.Int("solvers", 2, "max concurrent solves")
		queue    = fs.Int("queue", 8, "max requests waiting for a solver slot (-1 = none)")
		cache    = fs.Int("cache", 256, "plan cache entries (also the bound of the request decode memo)")
		budget   = fs.Duration("budget", 10*time.Second, "default solve budget")
		maxBud   = fs.Duration("max-budget", 60*time.Second, "maximum solve budget a request may ask for")
		parallel = fs.Int("parallel", 0, "per-solve worker count (0 = GOMAXPROCS)")
		warmDir  = fs.String("warm-dir", "", "directory of graph JSON files to pre-solve at startup")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight solves on shutdown")
		obsLog   = fs.String("obs-log", "", `stream per-request telemetry as JSON lines to this file ("-" = stderr)`)
		spanHist = fs.Int("span-history", 0, "recent requests to retain span dumps for (0 = default 64)")
		fleetN   = fs.Int("fleet", 0, "run N in-process replicas behind the fingerprint router (0 = single server)")
		fleetBk  = fs.String("fleet-backends", "", "comma-separated base URLs of external pestod replicas to route to")
		flightD  = fs.String("flight-dir", "", "directory for flight-recorder repro bundles (empty = in-memory only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *slog.Logger
	if *obsLog != "" {
		lw := io.Writer(os.Stderr)
		if *obsLog != "-" {
			lf, err := os.Create(*obsLog)
			if err != nil {
				return err
			}
			defer lf.Close()
			lw = lf
		}
		logger = slog.New(slog.NewJSONHandler(lw, nil))
	}

	newServer := func() (*service.Server, error) {
		srv := service.New(service.Config{
			MaxConcurrentSolves: *solvers,
			QueueDepth:          *queue,
			CacheEntries:        *cache,
			DefaultBudget:       *budget,
			MaxBudget:           *maxBud,
			Parallel:            *parallel,
			Logger:              logger,
			SpanHistory:         *spanHist,
			FlightDir:           *flightD,
		})
		if *warmDir != "" {
			start := time.Now()
			n, err := srv.WarmFromDir(context.Background(), *warmDir)
			if err != nil {
				return nil, fmt.Errorf("warm-up from %s: %w", *warmDir, err)
			}
			log.Printf("warmed %d plans from %s in %v", n, *warmDir, time.Since(start).Round(time.Millisecond))
		}
		return srv, nil
	}

	// Pick the serving topology: a single service, an in-process
	// replica fleet behind the fingerprint router, or a router over
	// external pestod processes.
	var (
		handler http.Handler
		drain   func(context.Context) error
		mode    string
	)
	proberCtx, stopProber := context.WithCancel(context.Background())
	defer stopProber()
	switch {
	case *fleetBk != "":
		if *fleetN != 0 {
			return errors.New("-fleet and -fleet-backends are mutually exclusive")
		}
		var backends []fleet.Backend
		for _, u := range strings.Split(*fleetBk, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			// The URL is the replica's ring identity: every router
			// fronting the same backend list computes the same
			// ownership, so caches shard consistently across routers.
			backends = append(backends, fleet.NewHTTPBackend(u, u, nil))
		}
		if len(backends) == 0 {
			return errors.New("-fleet-backends: no backend URLs")
		}
		rt, err := fleet.New(fleet.Config{}, backends...)
		if err != nil {
			return err
		}
		rt.Start(proberCtx)
		handler = rt
		drain = func(context.Context) error { return nil } // external replicas drain themselves
		mode = fmt.Sprintf("fleet router over %d HTTP backends", len(backends))
	case *fleetN > 0:
		servers := make([]*service.Server, *fleetN)
		backends := make([]fleet.Backend, *fleetN)
		for i := range servers {
			srv, err := newServer()
			if err != nil {
				return err
			}
			servers[i] = srv
			backends[i] = fleet.NewHandlerBackend(fmt.Sprintf("r%d", i), srv)
		}
		rt, err := fleet.New(fleet.Config{}, backends...)
		if err != nil {
			return err
		}
		rt.Start(proberCtx)
		handler = rt
		drain = func(ctx context.Context) error {
			var errs []error
			for _, s := range servers {
				errs = append(errs, s.Drain(ctx))
			}
			return errors.Join(errs...)
		}
		mode = fmt.Sprintf("fleet of %d in-process replicas", *fleetN)
	default:
		srv, err := newServer()
		if err != nil {
			return err
		}
		handler = srv
		drain = srv.Drain
		mode = "single server"
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The service handler plus the runtime's profiling endpoints.
	// Registering pprof explicitly (not via the package's init side
	// effect on http.DefaultServeMux) keeps the route set visible here.
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	httpSrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("pestod listening on %s (%s, solvers=%d queue=%d cache=%d budget=%v)",
		ln.Addr(), mode, *solvers, *queue, *cache, *budget)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("received %v, draining (timeout %v)", s, *drainTO)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Drain first: new solve requests 503 while in-flight solves finish,
	// then stop accepting connections at all.
	stopProber()
	drainErr := drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		log.Printf("drain incomplete: %v (in-flight solves were cancelled)", drainErr)
	} else {
		log.Printf("drained cleanly")
	}
	return nil
}
