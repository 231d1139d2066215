package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"pesto/internal/fleet"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/obs"
	"pesto/internal/service"
	"pesto/internal/sim"
)

// serve_zipf calibration. The corpus is four times the fleet's cache
// capacity (2 replicas x 16 entries), so the hot head hits and the
// tail evicts; budgetMs 150 maps to the pipeline-dp rung, which keeps
// the solver at ~1 ms of a miss and leaves the service path dominant.
const (
	serveCorpus       = 128
	serveSkew         = 1.2
	serveBudgetMs     = 150
	serveCacheEntries = 16
	serveReplicas     = 2
	serveClients      = 2
	// serveBlock is the requests between two speed measurements, ~0.3 s
	// at ~1.6k rps; a round is serveBlocks of them.
	serveBlock  = 500
	serveBlocks = 4
	// serveSeq is the length of the generated Zipf sequence; rounds walk
	// it and wrap.
	serveSeq = 1 << 16
	// A class here is 128 graphs of 8-63 ops, so its limit is set from
	// its tail (p99.9 ~7 ms hit, ~10 ms miss), not its median (0.66 /
	// 1.7 ms); 25 ms is also where the router would start hedging.
	serveHitLimit  = 25 * time.Millisecond
	serveMissLimit = 50 * time.Millisecond
)

const (
	serveHit = iota
	serveMiss
)

// listener is one http.Server on its own loopback port.
type listener struct {
	srv *http.Server
	url string
	// done closes when Serve has returned.
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // loopback benchmark: nothing in flight worth draining
	<-l.done
}

// serveKey is one corpus graph as the clients see it.
type serveKey struct {
	body []byte // the request
	// out.body is the first 200 body seen for the key; every later
	// answer, hit or re-solved miss, must equal it byte for byte.
	out *output
}

// serveInstance is a two-replica fleet behind a router, all in this
// process on loopback sockets, and the Zipf request sequence.
type serveInstance struct {
	replicas   []*service.Server
	router     *fleet.Router
	listeners  []*listener
	transports []*http.Transport // every connection pool, for close
	clients    []*http.Client    // the load generators
	url        string

	keys []serveKey
	seq  []int
	pos  int
	// block requests are sent between two speed measurements, blocks
	// blocks in a round.
	block, blocks int

	mu sync.Mutex // guards keys[i].out.body
}

func buildServeZipf(seed int64, sc scale) (instance, error) {
	corpus, block, blocks := serveCorpus, serveBlock, serveBlocks
	if sc.short {
		corpus, block, blocks = 32, 100, 2
	}
	// The graphs and their popularity ranks are pinned like the other
	// corpora (a seed-drawn corpus moved alloc_mb_per_op by 6 % between
	// seeds); the seed draws the request sequence.
	pinned, err := gen.NewTrace(gen.TraceConfig{Corpus: corpus, Requests: 1, Skew: serveSkew, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	drawn, err := gen.NewTrace(gen.TraceConfig{Corpus: corpus, Requests: serveSeq, Skew: serveSkew, Seed: seed})
	if err != nil {
		return nil, err
	}
	inst := &serveInstance{keys: make([]serveKey, corpus), seq: drawn.Seq, block: block, blocks: blocks}
	sys := sim.NewSystem(2, gpuMem)
	pins := loadPins("serve_zipf")
	for i, cfg := range pinned.Configs {
		g, err := gen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("corpus graph %d: %w", i, err)
		}
		if inst.keys[i].body, err = placeRequestBody(g); err != nil {
			return nil, err
		}
		ref, lb, err := reference(g, sys)
		if err != nil {
			return nil, fmt.Errorf("corpus graph %d: %w", i, err)
		}
		inst.keys[i].out = &output{g: g, sys: sys, ref: pins.ref(graphKey(i), ref), lb: lb}
	}

	ok := false
	defer func() {
		if !ok {
			inst.close()
		}
	}()
	backends := make([]fleet.Backend, serveReplicas)
	for i := range backends {
		rep := service.New(service.Config{CacheEntries: serveCacheEntries})
		inst.replicas = append(inst.replicas, rep)
		l, err := listen(rep)
		if err != nil {
			return nil, err
		}
		inst.listeners = append(inst.listeners, l)
		backends[i] = fleet.NewHTTPBackend(fmt.Sprintf("r%d", i), l.url, inst.newClient())
	}
	// The prober is left off: no replica fails here, and its ticker
	// would only add wake-ups between requests.
	if inst.router, err = fleet.New(fleet.Config{Seed: seed}, backends...); err != nil {
		return nil, err
	}
	l, err := listen(inst.router)
	if err != nil {
		return nil, err
	}
	inst.listeners = append(inst.listeners, l)
	inst.url = l.url + "/v1/place"

	clients := sc.clients
	if clients <= 0 {
		clients = serveClients
	}
	for i := 0; i < clients; i++ {
		inst.clients = append(inst.clients, inst.newClient())
	}
	ok = true
	return inst, nil
}

// newClient returns a client with its own connection pool, kept alive
// so the measured path is request/response and not TCP set-up.
func (s *serveInstance) newClient() *http.Client {
	t := &http.Transport{MaxIdleConnsPerHost: serveClients, IdleConnTimeout: time.Minute}
	s.transports = append(s.transports, t)
	return &http.Client{Transport: t}
}

func graphKey(i int) string { return fmt.Sprintf("graph-%03d", i) }

// placeRequestBody is the POST /v1/place body for g at the benchmark's
// budget.
func placeRequestBody(g *graph.Graph) ([]byte, error) {
	return json.Marshal(service.PlaceRequest{Graph: g, Options: service.RequestOptions{BudgetMs: serveBudgetMs}})
}

func (s *serveInstance) classes() []class {
	return []class{
		serveHit:  {name: "cache-hit", limit: serveHitLimit},
		serveMiss: {name: "cache-miss", limit: serveMissLimit},
	}
}

// round sends the next blocks of the sequence. Within a block each
// client takes the next unsent request as soon as its previous one
// returned (closed loop, because callers wait for their plan); between
// blocks the clients pause for the speed measurement.
func (s *serveInstance) round(ctx context.Context, _ *rand.Rand, m *meter) []sample {
	samples := make([]sample, 0, s.blocks*s.block)
	for b := 0; b < s.blocks; b++ {
		var block []sample
		speed := m.block(func() { block = s.sendBlock(ctx) })
		for i := range block {
			block[i].speed = speed
		}
		samples = append(samples, block...)
	}
	return samples
}

func (s *serveInstance) sendBlock(ctx context.Context) []sample {
	samples := make([]sample, s.block)
	next := make(chan int)
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range next {
				samples[i] = s.request(ctx, c, s.seq[(s.pos+i)%len(s.seq)])
			}
		}(c)
	}
	for i := range samples {
		next <- i
	}
	close(next)
	wg.Wait()
	s.pos += s.block
	return samples
}

// request is one op: POST the key's graph to the router, read the
// answer, and hold it to the first answer for that key.
func (s *serveInstance) request(ctx context.Context, c *http.Client, key int) sample {
	k := &s.keys[key]
	rctx, span := obs.Start(ctx, "bench.http.place", obs.Int("key", int64(key)))
	defer span.End()
	start := time.Now()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, s.url, bytes.NewReader(k.body))
	if err != nil {
		return sample{class: serveMiss, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return sample{class: serveMiss, err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	out := sample{class: serveMiss, dur: dur, out: k.out}
	if resp.Header.Get("X-Pesto-Cache") == "hit" {
		out.class = serveHit
	}
	span.Annotate(obs.String("cache", resp.Header.Get("X-Pesto-Cache")))
	switch {
	case err != nil:
		out.err = err
	case resp.StatusCode != http.StatusOK:
		out.err = refusedError{resp.StatusCode}
	default:
		s.mu.Lock()
		if k.out.body == nil {
			k.out.body = body
		} else if !bytes.Equal(k.out.body, body) {
			out.err = errMismatch
		}
		s.mu.Unlock()
	}
	return out
}

// refusedError is a non-200 answer: admission refused the request or
// the solve failed. Either way the caller got no plan.
type refusedError struct{ status int }

func (e refusedError) Error() string { return fmt.Sprintf("status %d", e.status) }

func (s *serveInstance) layerMetrics(traced []sample) map[string]float64 {
	var hits, refused float64
	durs := make([]float64, 0, len(traced))
	for _, sm := range traced {
		var r refusedError
		switch {
		case errors.As(sm.err, &r):
			refused++
		case sm.err == nil:
			durs = append(durs, ms(sm.dur))
			if sm.class == serveHit {
				hits++
			}
		}
	}
	retries, hedges, failovers, _ := s.router.Stats()
	out := map[string]float64{
		"service.cache_hit_share": hits / float64(len(traced)),
		"service.refused_share":   refused / float64(len(traced)),
		"fleet.retries":           float64(retries),
		"fleet.hedges":            float64(hedges),
		"fleet.failovers":         float64(failovers),
	}
	if len(durs) >= tailSamples {
		sort.Float64s(durs)
		out["service.req_p99_ms"] = durs[len(durs)*99/100]
	}
	return out
}

func (s *serveInstance) references() map[string]int64 {
	out := make(map[string]int64, len(s.keys))
	for i, k := range s.keys {
		out[graphKey(i)] = int64(k.out.ref)
	}
	return out
}

func (s *serveInstance) close() {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	// Router first: it holds the connections to the replicas.
	for i := len(s.listeners) - 1; i >= 0; i-- {
		s.listeners[i].close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, r := range s.replicas {
		_ = r.Drain(ctx) // nothing is in flight once the listeners are closed
	}
}
