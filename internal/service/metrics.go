package service

import (
	"io"
	"sync"
	"time"

	"pesto/internal/obs"
)

// metrics is the daemon's instrumentation: counters and one histogram
// behind a mutex, plus live gauges read at scrape time, exposed through
// obs.PromWriter with every label set in sorted order so consecutive
// scrapes of an idle server are byte-identical.
type metrics struct {
	mu sync.Mutex
	// requests[endpoint][outcome] counts finished requests.
	requests map[string]map[string]int64
	// cacheEvents[event] counts hit / miss / evict.
	cacheEvents map[string]int64
	// planStages[stage] counts served plans by degradation-ladder rung
	// (provenance).
	planStages map[string]int64
	// solveHist[stage] is the solve-latency histogram split by the
	// ladder rung that served the plan ("error" for failed solves).
	solveHist map[string]*obs.Histogram
	// incrSolves[path] counts /v1/place/delta solves by how they were
	// answered: "warm" (partial re-place), "cold" (fallback solve),
	// "near-hit" (an exact cold solve of the edited graph was already
	// cached).
	incrSolves map[string]int64
	// incrDirtyGroups / incrGroups total the coarse groups re-solved
	// vs. processed by warm and cold delta solves; their ratio is the
	// fleet-wide dirty fraction.
	incrDirtyGroups int64
	incrGroups      int64
	// pipelinePlans[schedule] counts pipeline-regime plans by the
	// winning microbatch discipline.
	pipelinePlans map[string]int64
	// pipelineStages totals the stage counts of served pipeline plans;
	// pipelineBubbleSum/Count aggregate their bubble fractions (the
	// ratio is the fleet-wide mean bubble).
	pipelineStages      int64
	pipelineBubbleSum   float64
	pipelineBubbleCount int64
	// Solver-progress totals harvested from per-request recorders.
	bnbNodes   int64
	lpPivots   int64
	incumbents int64
	lpSolves   int64
	warmHits   int64
	warmMisses int64

	// Gauges read live at scrape time.
	queueDepth   func() int64
	inFlight     func() int64
	cacheEntries func() int64
	// sloSnapshot reads the SLO tracker's objectives (sorted by name);
	// flightStats reads the flight recorder's capture counters. Both
	// take only their owner's lock, never this one.
	sloSnapshot func() []sloSnapshot
	flightStats func() (captured int, droppedFiles int64, ringTotal uint64)
}

func newMetrics() *metrics {
	return &metrics{
		requests:      make(map[string]map[string]int64),
		cacheEvents:   make(map[string]int64),
		planStages:    make(map[string]int64),
		solveHist:     make(map[string]*obs.Histogram),
		incrSolves:    make(map[string]int64),
		pipelinePlans: make(map[string]int64),
	}
}

// pipelinePlanServed records one pipeline-regime plan: the winning
// discipline, its stage count and its bubble fraction.
func (m *metrics) pipelinePlanServed(schedule string, stages int, bubble float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pipelinePlans[schedule]++
	m.pipelineStages += int64(stages)
	m.pipelineBubbleSum += bubble
	m.pipelineBubbleCount++
}

// incremental records one delta solve outcome and its coarse-group
// accounting.
func (m *metrics) incremental(path string, dirty, total int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.incrSolves[path]++
	m.incrDirtyGroups += dirty
	m.incrGroups += total
}

func (m *metrics) request(endpoint, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byOutcome := m.requests[endpoint]
	if byOutcome == nil {
		byOutcome = make(map[string]int64)
		m.requests[endpoint] = byOutcome
	}
	byOutcome[outcome]++
}

func (m *metrics) cacheEvent(event string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheEvents[event]++
}

func (m *metrics) planServed(stage string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.planStages[stage]++
}

func (m *metrics) observeSolve(d time.Duration, stage string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.solveHist[stage]
	if h == nil {
		h = new(obs.Histogram)
		m.solveHist[stage] = h
	}
	h.Observe(d)
}

// solverProgress folds one request's solver counters into the totals.
// Zero deltas are the common case (cache hits, bad requests) and are
// skipped without taking the lock.
func (m *metrics) solverProgress(nodes, pivots, incumbents, solves, warmHits, warmMisses int64) {
	if nodes == 0 && pivots == 0 && incumbents == 0 && solves == 0 && warmHits == 0 && warmMisses == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bnbNodes += nodes
	m.lpPivots += pivots
	m.incumbents += incumbents
	m.lpSolves += solves
	m.warmHits += warmHits
	m.warmMisses += warmMisses
}

// write emits the Prometheus text exposition.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := obs.PromWriter{W: w}

	p.Family("pestod_requests_total", "counter", "Finished HTTP requests by endpoint and outcome.")
	for _, ep := range obs.ScrapeOrder(m.requests) {
		for _, oc := range obs.ScrapeOrder(m.requests[ep]) {
			p.Sample("pestod_requests_total", m.requests[ep][oc], "endpoint", ep, "outcome", oc)
		}
	}
	p.CounterVec("pestod_cache_events_total", "Plan-cache events (hit, miss, evict).", "event", m.cacheEvents)
	p.CounterVec("pestod_plans_total", "Served plans by degradation-ladder rung.", "stage", m.planStages)

	p.CounterVec("pestod_incremental_solves_total", "Delta solves by path (warm, cold, near-hit).", "path", m.incrSolves)
	p.Counter("pestod_incremental_dirty_groups_total", "Coarse groups re-solved by delta solves.", m.incrDirtyGroups)
	p.Counter("pestod_incremental_groups_total", "Coarse groups processed by delta solves.", m.incrGroups)

	p.CounterVec("pestod_pipeline_plans_total", "Pipeline-regime plans by winning microbatch schedule.", "schedule", m.pipelinePlans)
	p.Counter("pestod_pipeline_stages_total", "Pipeline stages across served pipeline plans.", m.pipelineStages)
	p.Family("pestod_pipeline_bubble_fraction", "summary", "Bubble fractions of served pipeline plans.")
	p.Sample("pestod_pipeline_bubble_fraction_sum", m.pipelineBubbleSum)
	p.Sample("pestod_pipeline_bubble_fraction_count", m.pipelineBubbleCount)

	p.Gauge("pestod_queue_depth", "Requests waiting for a solver slot.", gauge(m.queueDepth))
	p.Gauge("pestod_inflight_solves", "Solves currently running.", gauge(m.inFlight))
	p.Gauge("pestod_cache_entries", "Live plan-cache entries.", gauge(m.cacheEntries))

	p.Histograms("pestod_solve_duration_seconds", "Wall-clock latency of cache-miss solves by degradation-ladder rung.", "stage", m.solveHist)

	p.Counter("pestod_bnb_nodes_total", "Branch-and-bound nodes expanded by solves.", m.bnbNodes)
	p.Counter("pestod_lp_pivots_total", "Simplex pivots performed by solves.", m.lpPivots)
	p.Counter("pestod_lp_solves_total", "LP relaxations solved (cold and warm-started).", m.lpSolves)
	p.Counter("pestod_lp_warmstart_hits_total", "Warm-started LP solves where the imported basis drove the result.", m.warmHits)
	p.Counter("pestod_lp_warmstart_misses_total", "Warm-start attempts that fell back to a cold solve.", m.warmMisses)
	pps := 0.0
	if m.lpSolves > 0 {
		pps = float64(m.lpPivots) / float64(m.lpSolves)
	}
	p.Gauge("pestod_lp_pivots_per_solve", "Mean simplex pivots per LP solve since startup.", pps)
	p.Counter("pestod_incumbent_improvements_total", "Branch-and-bound incumbent improvements found by solves.", m.incumbents)

	var slos []sloSnapshot
	if m.sloSnapshot != nil {
		slos = m.sloSnapshot()
	}
	p.Family("pestod_slo_events_total", "counter", "Events classified against each SLO (good within objective, bad burning budget).")
	for _, s := range slos {
		p.Sample("pestod_slo_events_total", s.bad, "result", "bad", "slo", s.name)
		p.Sample("pestod_slo_events_total", s.good, "result", "good", "slo", s.name)
	}
	p.Family("pestod_slo_error_budget_used_fraction", "gauge", "Lifetime bad fraction over the error budget (1.0 = budget exactly spent).")
	for _, s := range slos {
		p.Sample("pestod_slo_error_budget_used_fraction", s.budgetUsed, "slo", s.name)
	}
	p.Family("pestod_slo_burn_rate", "gauge", "Windowed bad fraction over the error budget (multiwindow: 5m and 1h).")
	for _, s := range slos {
		p.Sample("pestod_slo_burn_rate", s.slowRate, "slo", s.name, "window", "1h")
		p.Sample("pestod_slo_burn_rate", s.fastRate, "slo", s.name, "window", "5m")
	}
	p.Family("pestod_slo_fast_burn_active", "gauge", "Whether the SLO is currently in a fast-burn episode (both windows over 14.4x).")
	for _, s := range slos {
		active := 0
		if s.fastBurnActive {
			active = 1
		}
		p.Sample("pestod_slo_fast_burn_active", active, "slo", s.name)
	}
	p.Family("pestod_slo_fast_burn_events_total", "counter", "Fast-burn episodes entered since startup (edge-triggered).")
	for _, s := range slos {
		p.Sample("pestod_slo_fast_burn_events_total", s.fastBurnEvents, "slo", s.name)
	}

	var bundles int
	var droppedFiles int64
	var ringTotal uint64
	if m.flightStats != nil {
		bundles, droppedFiles, ringTotal = m.flightStats()
	}
	p.Counter("pestod_flight_bundles_total", "Flight-recorder repro bundles captured (persisted or not).", bundles)
	p.Counter("pestod_flight_bundle_files_dropped_total", "Bundle files not written because the per-process cap was reached.", droppedFiles)
	p.Counter("pestod_flight_ring_records_total", "Telemetry records ever admitted to the flight-recorder ring.", ringTotal)
}

func gauge(f func() int64) int64 {
	if f == nil {
		return 0
	}
	return f()
}
