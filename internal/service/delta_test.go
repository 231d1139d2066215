package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/incr"
	"pesto/internal/sim"
)

// layeredBody builds a place request big enough for the warm delta
// path to have clean groups to reuse.
func layeredBody(t *testing.T, seed int64, opts RequestOptions) (*graph.Graph, []byte) {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: seed, Nodes: 48})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	body, err := json.Marshal(PlaceRequest{Graph: g, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return g, body
}

func deltaBody(t *testing.T, baseFP string, edits []incr.Edit, opts RequestOptions) []byte {
	t.Helper()
	body, err := json.Marshal(DeltaRequest{BaseFingerprint: baseFP, Edits: edits, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDeltaEndToEnd drives the incremental route over HTTP: place a
// graph, send an edit against its fingerprint, and require a verified
// plan for the edited graph with incremental provenance — then chain a
// second delta off the first response's fingerprint.
func TestDeltaEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	opts := fastOptions()
	g, body := layeredBody(t, 7, opts)

	resp := post(t, ts.URL+"/v1/place", body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: %d %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}

	edits := []incr.Edit{{Kind: incr.KindReweight, Node: 10, CostNs: 2_000_000}}
	resp = post(t, ts.URL+"/v1/place/delta", deltaBody(t, pr.Fingerprint, edits, opts))
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, data)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.BaseFingerprint != pr.Fingerprint {
		t.Fatalf("base fingerprint %s, want %s", dr.BaseFingerprint, pr.Fingerprint)
	}
	if !dr.Verified {
		t.Fatal("delta plan not verified")
	}
	if dr.CacheKey == pr.CacheKey {
		t.Fatal("delta cache key equals the cold key: namespaces collide")
	}
	edited, _, err := incr.ApplyAll(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := edited.Fingerprint()
	if dr.Fingerprint != hexFP(wantFP) {
		t.Fatalf("edited fingerprint %s, want %x", dr.Fingerprint, wantFP)
	}
	// The served plan must be independently valid for the edited graph.
	normalized, err := opts.normalized(Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Plan.Validate(edited, normalized.system()); err != nil {
		t.Fatalf("delta plan invalid: %v", err)
	}
	if !dr.Warm && dr.FallbackReason == "" {
		t.Fatal("cold delta carries no fallback reason")
	}
	if dr.Warm && (dr.DirtyGroups <= 0 || dr.DirtyGroups > dr.TotalGroups || dr.ChainDepth != 1) {
		t.Fatalf("warm accounting off: %+v", dr)
	}

	// Identical delta again: a cache hit, byte-identical body.
	resp = post(t, ts.URL+"/v1/place/delta", deltaBody(t, pr.Fingerprint, edits, opts))
	again := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta replay: %d %s", resp.StatusCode, again)
	}
	if resp.Header.Get("X-Pesto-Cache") != "hit" {
		t.Fatalf("delta replay X-Pesto-Cache %q, want hit", resp.Header.Get("X-Pesto-Cache"))
	}
	if !bytes.Equal(data, again) {
		t.Fatal("replayed delta body not byte-identical")
	}

	// Chained delta: the edited graph is resident now, so its
	// fingerprint works as the next base without re-uploading anything.
	chain := []incr.Edit{{Kind: incr.KindReweight, Node: 3, CostNs: 1_500_000}}
	resp = post(t, ts.URL+"/v1/place/delta", deltaBody(t, dr.Fingerprint, chain, opts))
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chained delta: %d %s", resp.StatusCode, data)
	}
	var dr2 DeltaResponse
	if err := json.Unmarshal(data, &dr2); err != nil {
		t.Fatal(err)
	}
	if dr2.BaseFingerprint != dr.Fingerprint {
		t.Fatalf("chained base %s, want %s", dr2.BaseFingerprint, dr.Fingerprint)
	}
	if dr.Warm && dr2.Warm && dr2.ChainDepth != dr.ChainDepth+1 {
		t.Fatalf("chain depth %d after depth %d", dr2.ChainDepth, dr.ChainDepth)
	}
}

func hexFP(fp [32]byte) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 64)
	for i, b := range fp {
		out[2*i] = hexdigits[b>>4]
		out[2*i+1] = hexdigits[b&0xf]
	}
	return string(out)
}

// TestDeltaErrors pins the 4xx surface: unknown bases are 404 (the
// client's signal to fall back to a full place), malformed and invalid
// edit lists are 400, and none of it panics the daemon.
func TestDeltaErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	opts := fastOptions()

	// Unknown base fingerprint → 404.
	unknown := hexFP([32]byte{1, 2, 3})
	resp := post(t, ts.URL+"/v1/place/delta",
		deltaBody(t, unknown, []incr.Edit{{Kind: incr.KindReweight, Node: 0, CostNs: 1000}}, opts))
	if data := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown base: %d %s", resp.StatusCode, data)
	}

	// Resident base, but edits that cannot apply → 400.
	_, body := layeredBody(t, 4, opts)
	resp = post(t, ts.URL+"/v1/place", body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: %d %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	for name, edits := range map[string][]incr.Edit{
		"bogus kind":        {{Kind: "bogus"}},
		"node out of range": {{Kind: incr.KindReweight, Node: 100000, CostNs: 1000}},
		"missing edge":      {{Kind: incr.KindReweightEdge, From: 0, To: 47, Bytes: 64}},
	} {
		resp = post(t, ts.URL+"/v1/place/delta", deltaBody(t, pr.Fingerprint, edits, opts))
		if data := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, data)
		}
	}

	// Empty edit list and trailing garbage are schema violations.
	for name, raw := range map[string]string{
		"empty edits":   `{"baseFingerprint":"` + pr.Fingerprint + `","edits":[],"options":{}}`,
		"trailing data": `{"baseFingerprint":"` + pr.Fingerprint + `","edits":[{"kind":"reweight","node":1,"costNs":10}],"options":{}} trailing`,
		"trailing ]}":   `{"baseFingerprint":"` + pr.Fingerprint + `","edits":[{"kind":"reweight","node":1,"costNs":10}],"options":{}}]}`,
		"unknown field": `{"baseFingerprint":"` + pr.Fingerprint + `","edits":[{"kind":"reweight","node":1,"costNs":10}],"bogus":1}`,
		"bad hex":       `{"baseFingerprint":"zz","edits":[{"kind":"reweight","node":1,"costNs":10}]}`,
	} {
		resp = post(t, ts.URL+"/v1/place/delta", []byte(raw))
		if data := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, data)
		}
	}
}

// TestDeltaNeverShadowsColdEntry is the key-separation regression
// test: after a delta solve for graph G', a cold /v1/place of G' must
// miss the cache (the delta result lives under the delta namespace)
// and produce its own entry under the cold key — and both entries then
// coexist.
func TestDeltaNeverShadowsColdEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	opts := fastOptions()
	g, body := layeredBody(t, 9, opts)

	resp := post(t, ts.URL+"/v1/place", body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: %d %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}

	edits := []incr.Edit{{Kind: incr.KindReweight, Node: 5, CostNs: 3_000_000}}
	resp = post(t, ts.URL+"/v1/place/delta", deltaBody(t, pr.Fingerprint, edits, opts))
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, data)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}

	// Cold-place the edited graph: the delta entry must not answer it.
	edited, _, err := incr.ApplyAll(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	editedBody, err := json.Marshal(PlaceRequest{Graph: edited, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/v1/place", editedBody)
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold place of edited graph: %d %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Pesto-Cache"); got != "miss" {
		t.Fatalf("cold place of edited graph served X-Pesto-Cache %q, want miss", got)
	}
	var cold PlaceResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.CacheKey == dr.CacheKey {
		t.Fatal("cold key equals delta key")
	}
	coldKey, err := hex32(cold.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	deltaKey, err := hex32(dr.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	if !s.cache.peek(coldKey) || !s.cache.peek(deltaKey) {
		t.Fatal("cold and delta entries do not coexist in the cache")
	}

	// The unit-level statement of the same property.
	normalized, err := opts.normalized(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseFP, _ := hex32(pr.Fingerprint)
	if deltaCacheKey(baseFP, incr.Fingerprint(edits), normalized) == normalized.cacheKey(edited.Fingerprint()) {
		t.Fatal("deltaCacheKey collides with the cold cacheKey")
	}
}

// TestDeltaNearHit: when the exact edited graph was already
// cold-solved under the same options, the delta route answers from
// that entry without running a solve.
func TestDeltaNearHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	opts := fastOptions()
	g, body := layeredBody(t, 11, opts)

	resp := post(t, ts.URL+"/v1/place", body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: %d %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	edits := []incr.Edit{{Kind: incr.KindReweight, Node: 8, CostNs: 2_500_000}}
	edited, _, err := incr.ApplyAll(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	editedBody, err := json.Marshal(PlaceRequest{Graph: edited, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/v1/place", editedBody)
	if data := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-solve edited graph: %d %s", resp.StatusCode, data)
	}
	fillsBefore, _, _ := s.CacheStats()

	resp = post(t, ts.URL+"/v1/place/delta", deltaBody(t, pr.Fingerprint, edits, opts))
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, data)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.FallbackReason != "near-hit" || dr.Warm {
		t.Fatalf("want a near-hit answer, got %+v", dr)
	}
	// The near-hit fill registered (one new delta-key entry) but ran no
	// placement: the solve histogram is what a real solve would bump,
	// and CacheStats fills only count fill functions started — exactly
	// one, for the delta key itself.
	if fills, _, _ := s.CacheStats(); fills != fillsBefore+1 {
		t.Fatalf("near-hit started %d fills, want 1", fills-fillsBefore)
	}
	if err := dr.Plan.Validate(edited, mustNormalize(t, opts, s.cfg).system()); err != nil {
		t.Fatalf("near-hit plan invalid: %v", err)
	}
}

func mustNormalize(t *testing.T, o RequestOptions, cfg Config) RequestOptions {
	t.Helper()
	n, err := o.normalized(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCacheImportRejectsMismatchedBody holds the warm-sync import to
// the no-shadowing rule: an entry whose body embeds a different cache
// key than it is being installed under — a delta plan re-filed under a
// cold key, or any forged pairing — is rejected wholesale.
func TestCacheImportRejectsMismatchedBody(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/place", testBody(t, 1, fastOptions()))
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: %d %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}

	forgedKey := hexFP([32]byte{0xde, 0xad, 0xbe, 0xef})
	imp, err := json.Marshal(CacheExport{Entries: []CacheEntryWire{{
		Key:         forgedKey, // body says pr.CacheKey; install says otherwise
		Fingerprint: pr.Fingerprint,
		Body:        json.RawMessage(data),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/v1/cache/import", imp)
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged import: %d %s", resp.StatusCode, body)
	}
	key, err := hex32(forgedKey)
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.peek(key) {
		t.Fatal("forged entry was installed")
	}
}

// TestBaseStoreEviction: the base store is a bounded LRU; an evicted
// base turns deltas against it into 404s without touching the plan
// cache.
func TestBaseStoreEviction(t *testing.T) {
	st := newBaseStore(2)
	var fps [3][32]byte
	for i := range fps {
		fps[i][0] = byte(i + 1)
		st.put(fps[i], nil, nil, sim.Plan{}, 0, 0)
	}
	if st.len() != 2 {
		t.Fatalf("len %d, want 2", st.len())
	}
	if _, ok := st.get(fps[0]); ok {
		t.Fatal("oldest base survived eviction")
	}
	for i := 1; i < 3; i++ {
		if _, ok := st.get(fps[i]); !ok {
			t.Fatalf("base %d evicted too early", i)
		}
	}
	// A refresh moves a base to the front.
	st.get(fps[1])
	st.put(fps[0], nil, nil, sim.Plan{}, 0, 0)
	if _, ok := st.get(fps[2]); ok {
		t.Fatal("refreshed base was evicted instead of the cold one")
	}
	if _, ok := st.get(fps[1]); !ok {
		t.Fatal("refreshed base evicted")
	}
}

// TestPlaceRestartsDeltaChain: a /v1/place of a graph that a delta made
// resident resets the entry to chain depth zero with no anchor — on a
// cold solve and on a cache hit alike — while the delta path keeps
// registering its own chain depth and anchor.
func TestPlaceRestartsDeltaChain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	opts := fastOptions()
	g, body := layeredBody(t, 7, opts)
	resp := post(t, ts.URL+"/v1/place", body)
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place: %d %s", resp.StatusCode, data)
	}
	var pr PlaceResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	edits := []incr.Edit{{Kind: incr.KindReweight, Node: 10, CostNs: 2_000_000}}
	edited, _, err := incr.ApplyAll(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	editedBody, err := json.Marshal(PlaceRequest{Graph: edited, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	fp := edited.Fingerprint()
	entry := func(step string, chain int, anchor float64) {
		t.Helper()
		e, ok := s.bases.get(fp)
		if !ok {
			t.Fatalf("%s: edited graph not resident", step)
		}
		if e.chain != chain || e.anchor != anchor {
			t.Fatalf("%s: chain %d anchor %v, want %d and %v", step, e.chain, e.anchor, chain, anchor)
		}
	}
	delta := func(step string) DeltaResponse {
		t.Helper()
		resp := post(t, ts.URL+"/v1/place/delta", deltaBody(t, pr.Fingerprint, edits, opts))
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", step, resp.StatusCode, data)
		}
		var dr DeltaResponse
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatal(err)
		}
		entry(step, dr.ChainDepth, dr.AnchorQuality)
		return dr
	}
	if dr := delta("warm delta"); !dr.Warm || dr.ChainDepth == 0 || dr.AnchorQuality == 0 {
		t.Fatalf("want a warm delta with a chain and an anchor, got %+v", dr)
	}
	for _, want := range []string{"miss", "hit"} {
		resp := post(t, ts.URL+"/v1/place", editedBody)
		if data := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("place: %d %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Pesto-Cache"); got != want {
			t.Fatalf("place X-Pesto-Cache %q, want %q", got, want)
		}
		entry("place "+want, 0, 0)
		delta("delta after place " + want) // a delta-cache hit, re-registering the chain
	}
}
