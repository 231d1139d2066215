package service

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pesto/internal/graph"
	"pesto/internal/incr"
	"pesto/internal/jsonlex"
	"pesto/internal/obs"
	"pesto/internal/placement"
	"pesto/internal/sim"
)

// ErrUnknownBase marks a delta request whose base fingerprint is not
// resident on this replica (404). Clients fall back to a full
// /v1/place with the edited graph; the response to that makes the
// graph resident for future deltas.
var ErrUnknownBase = errors.New("unknown base graph")

// DeltaRequest is the JSON body of POST /v1/place/delta: an edit list
// against a previously placed graph, identified by its canonical
// fingerprint. The server replays the edits onto its resident copy of
// the base graph and re-places the result incrementally, reusing the
// prior plan for the untouched region.
type DeltaRequest struct {
	// BaseFingerprint is the hex graph fingerprint of the already-placed
	// base graph (the "fingerprint" field of a prior place or delta
	// response).
	BaseFingerprint string `json:"baseFingerprint"`
	// Edits is the ordered edit list to apply to the base graph.
	Edits []incr.Edit `json:"edits"`
	// Options configures the target system and the solve. They must
	// match the base solve's options for the warm path to find its
	// prior plan.
	Options RequestOptions `json:"options"`
}

// DeltaResponse is the JSON body served for a delta placement: the
// regular place response for the edited graph, plus the incremental
// provenance. CacheKey is the delta key — namespaced separately from
// cold keys, so a delta result can never shadow the cold entry for
// the same graph.
type DeltaResponse struct {
	PlaceResponse
	// BaseFingerprint echoes the request's base graph.
	BaseFingerprint string `json:"baseFingerprint"`
	// Warm is true when the plan came from the warm re-place path
	// (prior devices frozen outside the dirty region), false for cold
	// fallbacks and near-hits.
	Warm bool `json:"warm"`
	// DirtyGroups / TotalGroups / ReuseFraction are the warm path's
	// coarse-group accounting (see placement.IncrementalInfo).
	DirtyGroups   int     `json:"dirtyGroups"`
	TotalGroups   int     `json:"totalGroups"`
	ReuseFraction float64 `json:"reuseFraction"`
	// ChainDepth counts warm re-places since the last cold solve; the
	// server forces a cold refresh past the placement layer's chain bound.
	ChainDepth int `json:"chainDepth"`
	// AnchorQuality is the chain's quality record (see
	// placement.IncrementalInfo.AnchorQuality); the server threads it
	// through resident bases so the warm path's drift detector keeps
	// its reference across delta chains.
	AnchorQuality float64 `json:"anchorQuality,omitempty"`
	// FallbackReason says why a cold path answered ("near-hit" when an
	// exact cold solve of the edited graph was already cached).
	FallbackReason string `json:"fallbackReason,omitempty"`
}

// deltaKeyVersion namespaces delta cache keys away from cold place
// keys. The two key spaces sharing one cache must never collide: a
// delta result cached under a cold key would shadow (and could
// poison) the cold entry for the edited graph, so the namespace is
// folded into the hash before anything request-derived.
const deltaKeyVersion = "pesto/service-delta-key/v1\n"

// deltaCacheKey is the content address of a delta request: base graph
// fingerprint + canonical edit-list fingerprint + every normalized
// option that can change the plan bytes.
func deltaCacheKey(baseFP, editsFP [32]byte, o RequestOptions) [32]byte {
	h := sha256.New()
	h.Write([]byte(deltaKeyVersion))
	h.Write(baseFP[:])
	h.Write(editsFP[:])
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(o.GPUs))
	u64(uint64(o.Hosts))
	u64(uint64(o.GPUMemBytes))
	u64(uint64(o.BudgetMs))
	u64(uint64(o.Seed))
	b := uint64(0)
	if o.ScheduleFromILP {
		b = 1
	}
	u64(b)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// DecodeDeltaRequest reads and validates one delta request body of at
// most limit bytes, under the same no-panic contract as
// DecodePlaceRequest.
func DecodeDeltaRequest(r io.Reader, limit int64) (*DeltaRequest, error) {
	data, err := readBody(r, limit)
	if err != nil {
		return nil, err
	}
	var req DeltaRequest
	if err := jsonlex.DecodeStrict(data, &req); err != nil {
		return nil, fmt.Errorf("decode delta request: %v: %w", err, ErrBadRequest)
	}
	if _, err := hex32(req.BaseFingerprint); err != nil {
		return nil, fmt.Errorf("baseFingerprint: %v: %w", err, ErrBadRequest)
	}
	if len(req.Edits) == 0 {
		return nil, fmt.Errorf("empty edit list: %w", ErrBadRequest)
	}
	return &req, nil
}

// baseEntry is one resident base graph: the graph, the latest plan
// served for it and the response body it was read from, how many warm
// re-places that plan already chains off the last cold solve, and the
// chain's quality record (the drift detector's reference — without it
// every delta would re-anchor on its immediate predecessor and drift
// could compound one margin at a time).
type baseEntry struct {
	g      *graph.Graph
	body   []byte
	plan   sim.Plan
	chain  int
	anchor float64
	elem   *list.Element
}

// baseStore is a bounded LRU of graphs the server has placed, keyed by
// canonical fingerprint. /v1/place registers every successfully placed
// graph (chain depth zero); /v1/place/delta both reads its base here
// and registers the edited result, so delta chains work without the
// client ever re-uploading a graph. Eviction only limits which bases
// deltas can target — plans live in the plan cache, not here.
type baseStore struct {
	mu      sync.Mutex
	cap     int
	entries map[[32]byte]*baseEntry
	lru     *list.List // front = most recently used; values are [32]byte keys
}

func newBaseStore(capacity int) *baseStore {
	if capacity <= 0 {
		capacity = 128
	}
	return &baseStore{
		cap:     capacity,
		entries: make(map[[32]byte]*baseEntry, capacity),
		lru:     list.New(),
	}
}

// get returns the resident entry for fp, refreshing its LRU position.
func (b *baseStore) get(fp [32]byte) (*baseEntry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	if ok {
		b.lru.MoveToFront(e.elem)
	}
	return e, ok
}

// put registers (or refreshes) the graph under fp with the plan that
// currently serves it and the response body that plan was read from.
func (b *baseStore) put(fp [32]byte, g *graph.Graph, body []byte, plan sim.Plan, chain int, anchor float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[fp]; ok {
		e.g, e.body, e.plan, e.chain, e.anchor = g, body, plan, chain, anchor
		b.lru.MoveToFront(e.elem)
		return
	}
	e := &baseEntry{g: g, body: body, plan: plan, chain: chain, anchor: anchor}
	e.elem = b.lru.PushFront(fp)
	b.entries[fp] = e
	for len(b.entries) > b.cap {
		back := b.lru.Back()
		delete(b.entries, back.Value.([32]byte))
		b.lru.Remove(back)
	}
}

// restart resets fp's entry to chain depth zero under g, exactly as put
// with the entry's own plan would, when the entry was registered from
// body; it reports whether it did.
func (b *baseStore) restart(fp [32]byte, g *graph.Graph, body []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	if !ok || !bytes.Equal(e.body, body) {
		return false
	}
	e.g, e.chain, e.anchor = g, 0, 0
	b.lru.MoveToFront(e.elem)
	return true
}

func (b *baseStore) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// registerBase makes a successfully placed graph a valid delta base.
// The plan is recovered from the serialized response body — parsed
// only when the resident entry was not already registered from these
// very bytes, as it was on every repeat hit. A body that does not
// parse is simply not registered (the place path already succeeded —
// base residency is best-effort amortization).
func (s *Server) registerBase(fp [32]byte, g *graph.Graph, body []byte) {
	if s.bases.restart(fp, g, body) {
		return
	}
	var resp PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return
	}
	s.bases.put(fp, g, body, resp.Plan, 0, 0)
}

// handleDelta serves POST /v1/place/delta: apply the edit list to the
// resident base graph, answer from the delta cache when the exact
// (base, edits, options) tuple was already solved, otherwise re-place
// incrementally with the base's prior plan as a partial assignment.
// The response is cached under the delta key namespace — structurally
// disjoint from cold place keys — so a delta plan can never shadow or
// displace the cold entry for the same graph.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	ctx, rid, finish := s.beginTelemetry(w, r, "delta")
	req, err := DecodeDeltaRequest(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		finish(s.httpError(w, "delta", rid, err))
		return
	}
	opts, err := req.Options.normalized(s.cfg)
	if err != nil {
		finish(s.httpError(w, "delta", rid, err))
		return
	}
	baseFP, _ := hex32(req.BaseFingerprint) // validated by the decoder
	base, ok := s.bases.get(baseFP)
	if !ok {
		finish(s.httpError(w, "delta", rid,
			fmt.Errorf("base graph %s not resident here: %w", req.BaseFingerprint, ErrUnknownBase)))
		return
	}
	edited, nodeMap, err := incr.ApplyAll(base.g, req.Edits)
	if err != nil {
		finish(s.httpError(w, "delta", rid, fmt.Errorf("apply edits: %v: %w", err, ErrBadRequest)))
		return
	}
	if edited.NumNodes() > s.cfg.MaxGraphNodes {
		finish(s.httpError(w, "delta", rid,
			fmt.Errorf("edited graph has %d nodes, limit %d: %w", edited.NumNodes(), s.cfg.MaxGraphNodes, ErrTooLarge)))
		return
	}
	editedFP := edited.Fingerprint()
	key := deltaCacheKey(baseFP, incr.Fingerprint(req.Edits), opts)
	prior := placement.PriorPlacement{
		Graph:         base.g,
		Plan:          base.plan,
		NodeMap:       nodeMap,
		ChainDepth:    base.chain,
		AnchorQuality: base.anchor,
	}

	var body []byte
	var hit bool
	if opts.NoCache {
		body, err = s.solveDelta(ctx, edited, editedFP, baseFP, key, prior, opts)
	} else {
		body, hit, err = s.cache.getOrFill(ctx, key, editedFP, func(interest context.Context) ([]byte, error) {
			fillCtx, cancel := context.WithTimeout(s.baseCtx, 2*opts.budget()+5*time.Second)
			defer cancel()
			stop := context.AfterFunc(interest, cancel)
			defer stop()
			fillCtx = obs.Into(fillCtx, obs.From(ctx))
			return s.solveDelta(fillCtx, edited, editedFP, baseFP, key, prior, opts)
		})
	}
	if err != nil {
		finish(s.httpError(w, "delta", rid, err))
		return
	}
	// Make the edited graph a base for the next delta in the chain,
	// cache hits included: residency follows traffic, not just solves.
	var resp DeltaResponse
	if err := json.Unmarshal(body, &resp); err == nil {
		s.bases.put(editedFP, edited, body, resp.Plan, resp.ChainDepth, resp.AnchorQuality)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pesto-Cache", cacheStatus(hit))
	w.Write(body)
	s.met.request("delta", "ok")
	s.met.cacheEvent(cacheStatus(hit))
	s.slo.observe("availability", false)
	finish("ok")
}

// solveDelta produces the serialized DeltaResponse for one admitted
// delta solve. Before taking a solver slot it checks for a near-hit:
// an exact cold solve of the edited graph already in the plan cache
// (same options) is re-wrapped as the delta answer — no solve at all.
func (s *Server) solveDelta(ctx context.Context, edited *graph.Graph, editedFP, baseFP, key [32]byte, prior placement.PriorPlacement, opts RequestOptions) ([]byte, error) {
	if cold, ok := s.cache.lookup(opts.cacheKey(editedFP)); ok {
		var cr PlaceResponse
		if err := json.Unmarshal(cold, &cr); err == nil {
			s.met.incremental("near-hit", 0, 0)
			cr.CacheKey = hex.EncodeToString(key[:])
			return json.Marshal(DeltaResponse{
				PlaceResponse:   cr,
				BaseFingerprint: hex.EncodeToString(baseFP[:]),
				FallbackReason:  "near-hit",
			})
		}
	}

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
	res, err := placement.Incremental(ctx, edited, opts.system(), prior, opts.placeOptions(s.cfg))
	elapsed := time.Since(start)
	if err != nil {
		s.met.observeSolve(elapsed, "error")
		return nil, err
	}
	s.met.observeSolve(elapsed, res.Provenance.Stage.String())
	s.met.planServed(res.Provenance.Stage.String())
	info := res.Provenance.Incremental
	path := "warm"
	if info.ColdFallback {
		path = "cold"
	}
	s.met.incremental(path, int64(info.DirtyGroups), int64(info.TotalGroups))

	return json.Marshal(DeltaResponse{
		PlaceResponse: PlaceResponse{
			Fingerprint: hex.EncodeToString(editedFP[:]),
			CacheKey:    hex.EncodeToString(key[:]),
			Plan:        res.Plan,
			Stage:       res.Provenance.Stage.String(),
			Degraded:    res.Provenance.Degraded,
			MakespanNs:  int64(res.SimulatedMakespan),
			PredictedNs: int64(res.PredictedMakespan),
			Verified:    true, // Incremental verifies warm plans unconditionally; cold path verifies via placeOptions
		},
		BaseFingerprint: hex.EncodeToString(baseFP[:]),
		Warm:            !info.ColdFallback,
		DirtyGroups:     info.DirtyGroups,
		TotalGroups:     info.TotalGroups,
		ReuseFraction:   info.ReuseFraction,
		ChainDepth:      info.ChainDepth,
		AnchorQuality:   info.AnchorQuality,
		FallbackReason:  info.FallbackReason,
	})
}
