package fleet

import (
	"io"
	"sort"
	"sync"
	"time"

	"pesto/internal/obs"
)

// fleetMetrics instruments the router: counters behind a mutex plus
// per-replica gauges read live at scrape time, exposed through the same
// obs.PromWriter as internal/service with every label set in sorted
// order, so consecutive scrapes of an idle router are byte-identical
// (the golden test holds this).
type fleetMetrics struct {
	mu sync.Mutex
	// requests[endpoint][outcome] counts finished router requests.
	requests map[string]map[string]int64
	// retries counts full failed passes that slept and went around again.
	retries int64
	// hedges counts hedge requests fired; hedgeWins counts hedges whose
	// answer was used.
	hedges, hedgeWins int64
	// failovers counts requests answered by a replica other than the
	// ring owner.
	failovers int64
	// warmsyncKeys counts cache entries installed into rejoining
	// replicas.
	warmsyncKeys int64
	// batch dedup accounting: batchRequests counts batch entries
	// received, batchDeduped counts entries answered by another entry's
	// solve.
	batchRequests, batchDeduped int64
	// hopHist is the per-attempt latency histogram, split by why the
	// hop happened (first | retry | hedge | last-resort). All kinds are
	// pre-registered so an idle scrape is complete and byte-stable.
	hopHist map[string]*obs.Histogram

	// replicaStates reads live per-replica liveness and breaker state,
	// sorted by replica ID.
	replicaStates func() []replicaState
}

// replicaState is one replica's scrape-time condition.
type replicaState struct {
	id      string
	up      bool
	breaker int
}

// hopKinds pre-registers every hop kind the router emits.
var hopKinds = [...]string{"first", "retry", "hedge", "last-resort"}

func newFleetMetrics() *fleetMetrics {
	m := &fleetMetrics{
		requests: make(map[string]map[string]int64),
		hopHist:  make(map[string]*obs.Histogram),
	}
	for _, k := range hopKinds {
		m.hopHist[k] = new(obs.Histogram)
	}
	return m
}

// observeHop records one finished backend attempt of the given kind.
func (m *fleetMetrics) observeHop(kind string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hopHist[kind]
	if h == nil {
		h = new(obs.Histogram)
		m.hopHist[kind] = h
	}
	h.Observe(d)
}

func (m *fleetMetrics) request(endpoint, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byOutcome := m.requests[endpoint]
	if byOutcome == nil {
		byOutcome = make(map[string]int64)
		m.requests[endpoint] = byOutcome
	}
	byOutcome[outcome]++
}

func (m *fleetMetrics) addRetry() { m.add(&m.retries, 1) }

func (m *fleetMetrics) addHedge() { m.add(&m.hedges, 1) }

func (m *fleetMetrics) addHedgeWin() { m.add(&m.hedgeWins, 1) }

func (m *fleetMetrics) addFailover() { m.add(&m.failovers, 1) }

func (m *fleetMetrics) addWarmsyncKeys(n int64) { m.add(&m.warmsyncKeys, n) }

func (m *fleetMetrics) addBatch(entries, deduped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchRequests += entries
	m.batchDeduped += deduped
}

func (m *fleetMetrics) add(p *int64, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	*p += n
}

// snapshot reads the counters for tests.
func (m *fleetMetrics) snapshot() (retries, hedges, failovers, warmsync int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries, m.hedges, m.failovers, m.warmsyncKeys
}

// write emits the Prometheus text exposition.
func (m *fleetMetrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := obs.PromWriter{W: w}

	p.Family("pestod_fleet_requests_total", "counter", "Finished fleet-router requests by endpoint and outcome.")
	for _, ep := range obs.ScrapeOrder(m.requests) {
		for _, oc := range obs.ScrapeOrder(m.requests[ep]) {
			p.Sample("pestod_fleet_requests_total", m.requests[ep][oc], "endpoint", ep, "outcome", oc)
		}
	}
	p.Counter("pestod_fleet_retries_total", "Failed full ring passes that backed off and retried.", m.retries)
	p.Counter("pestod_fleet_hedges_total", "Hedge requests fired at the next ring replica.", m.hedges)
	p.Counter("pestod_fleet_hedge_wins_total", "Hedge requests whose answer was served.", m.hedgeWins)
	p.Counter("pestod_fleet_failovers_total", "Requests answered by a replica other than the ring owner.", m.failovers)
	p.Counter("pestod_fleet_warmsync_keys_total", "Cache entries installed into rejoining replicas.", m.warmsyncKeys)
	p.Counter("pestod_fleet_batch_entries_total", "Batch entries received by POST /v1/place/batch.", m.batchRequests)
	p.Counter("pestod_fleet_batch_deduped_total", "Batch entries answered by another identical entry's solve.", m.batchDeduped)
	p.Histograms("pestod_fleet_hop_latency_seconds", "Latency of one backend attempt, by hop kind (first/retry/hedge/last-resort).", "kind", m.hopHist)

	var states []replicaState
	if m.replicaStates != nil {
		states = m.replicaStates()
	}
	sort.Slice(states, func(a, b int) bool { return states[a].id < states[b].id })
	p.Family("pestod_fleet_replica_up", "gauge", "Replica liveness as seen by the router (1 = taking traffic).")
	for _, st := range states {
		up := 0
		if st.up {
			up = 1
		}
		p.Sample("pestod_fleet_replica_up", up, "replica", st.id)
	}
	p.Family("pestod_fleet_breaker_state", "gauge", "Circuit-breaker state per replica (0 closed, 1 half-open, 2 open).")
	for _, st := range states {
		p.Sample("pestod_fleet_breaker_state", st.breaker, "replica", st.id)
	}
}
