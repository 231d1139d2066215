package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pesto/internal/gen"
)

// serve sends body to the server's path in-process under a fixed
// request ID, so error bodies (which carry the ID) compare byte for
// byte across sends.
func serve(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "memo-test")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// memoised reports whether the server's decode memo holds body.
func memoised(s *Server, body []byte) bool {
	_, ok := s.decoded.Peek(sha256.Sum256(body))
	return ok
}

// TestDecodeMemoRepeatedBody holds a memoised decode to the answer a
// cold one gives: a repeated body gets the same bytes, and the same
// X-Pesto-Cache header, as the same request spelled with other bytes
// (trailing whitespace), which the memo has not seen.
func TestDecodeMemoRepeatedBody(t *testing.T) {
	s := New(Config{})
	for _, opts := range []RequestOptions{fastOptions(), {BudgetMs: 50, NoCache: true}} {
		body := testBody(t, 1, opts)
		respelled := append(append([]byte(nil), body...), '\n')
		first := serve(s, "/v1/place", body)
		if first.Code != http.StatusOK {
			t.Fatalf("noCache %v: status %d: %s", opts.NoCache, first.Code, first.Body.Bytes())
		}
		if !memoised(s, body) {
			t.Fatalf("noCache %v: accepted body not memoised", opts.NoCache)
		}
		repeat := serve(s, "/v1/place", body)
		cold := serve(s, "/v1/place", respelled)
		for _, c := range []struct {
			name string
			rec  *httptest.ResponseRecorder
		}{{"repeat", repeat}, {"respelled", cold}} {
			if c.rec.Code != http.StatusOK || !bytes.Equal(c.rec.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("noCache %v: %s answered %d with other bytes: %s", opts.NoCache, c.name, c.rec.Code, c.rec.Body.Bytes())
			}
		}
		if r, c := repeat.Header().Get("X-Pesto-Cache"), cold.Header().Get("X-Pesto-Cache"); r != c {
			t.Fatalf("noCache %v: X-Pesto-Cache %q on the memoised body, %q on the cold one", opts.NoCache, r, c)
		}
	}
}

// TestDecodeMemoHitAllocs holds a memoised decode of a 64-op graph to
// the cost of reading and hashing the body: far fewer allocations than
// decoding and fingerprinting it.
func TestDecodeMemoHitAllocs(t *testing.T) {
	s := New(Config{})
	g, err := gen.Generate(gen.Config{Family: gen.Diamond, Seed: 1, Nodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{Graph: g, Options: fastOptions()})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/place", nil)
	decode := func() {
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		if _, err := s.decode(r); err != nil {
			t.Fatal(err)
		}
	}
	decode() // fills the memo
	hit := testing.AllocsPerRun(50, decode)
	cold := testing.AllocsPerRun(50, func() {
		req, err := DecodePlaceRequest(bytes.NewReader(body), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		req.Graph.Fingerprint()
	})
	t.Logf("allocations: memoised decode %v, cold decode and fingerprint %v", hit, cold)
	if hit > 8 || hit*10 > cold {
		t.Fatalf("memoised decode allocates %v times, a cold decode %v; want at most 8 and a tenth", hit, cold)
	}
}

// TestDecodeMemoKeepsHotBody: the decode memo evicts the least
// recently used body, so a body re-sent between each of CacheEntries
// distinct colder bodies stays memoised, as its plan stays cached.
func TestDecodeMemoKeepsHotBody(t *testing.T) {
	const entries = 3
	s := New(Config{CacheEntries: entries})
	hot := testBody(t, 1, fastOptions())
	for seed := int64(2); seed <= entries+2; seed++ {
		if rec := serve(s, "/v1/place", hot); rec.Code != http.StatusOK {
			t.Fatalf("hot body: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec := serve(s, "/v1/place", testBody(t, seed, fastOptions())); rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, rec.Code, rec.Body.Bytes())
		}
		if !memoised(s, hot) {
			t.Fatalf("hot body evicted by cold body %d of %d", seed-1, entries+1)
		}
	}
}

// TestDecodeMemoRejectsEveryTime sends each rejected body twice: a
// malformed body and invalid options (400) and a graph over
// MaxGraphNodes (413) are rejected both times with identical bytes,
// and none of them enters the memo.
func TestDecodeMemoRejectsEveryTime(t *testing.T) {
	s := New(Config{MaxGraphNodes: 8})
	for _, c := range []struct {
		name string
		body []byte
		code int
	}{
		{"malformed", []byte(`{"graph": [`), http.StatusBadRequest},
		{"options", []byte(`{"graph":{"nodes":[{"id":0}]},"options":{"gpus":1}}`), http.StatusBadRequest},
		{"too many nodes", testBody(t, 1, fastOptions()), http.StatusRequestEntityTooLarge},
	} {
		first := serve(s, "/v1/place", c.body)
		second := serve(s, "/v1/place", c.body)
		if first.Code != c.code || second.Code != c.code {
			t.Fatalf("%s: statuses %d then %d, want %d", c.name, first.Code, second.Code, c.code)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("%s: rejections differ:\n%s\n%s", c.name, first.Body.Bytes(), second.Body.Bytes())
		}
		if memoised(s, c.body) {
			t.Fatalf("%s: rejected body memoised", c.name)
		}
	}
}

// TestDecodeMemoConcurrent sends identical bodies to one server from
// many goroutines at once, so that under -race the memo and the graph
// it shares between requests are held to concurrent use: cached and
// uncached place solves and traces all read one decoded graph.
func TestDecodeMemoConcurrent(t *testing.T) {
	s := New(Config{MaxConcurrentSolves: 4, QueueDepth: 64})
	cases := []struct {
		path string
		body []byte
	}{
		{"/v1/place", testBody(t, 1, fastOptions())},
		{"/v1/place", testBody(t, 2, RequestOptions{BudgetMs: 50, NoCache: true})},
		{"/v1/trace", testBody(t, 1, fastOptions())},
	}
	const senders = 8
	answers := make([][senders][]byte, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		for j := 0; j < senders; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := serve(s, c.path, c.body)
				if rec.Code != http.StatusOK {
					t.Errorf("%s body %d: status %d: %s", c.path, i, rec.Code, rec.Body.Bytes())
				}
				answers[i][j] = rec.Body.Bytes()
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, c := range cases {
		for j := 1; j < senders; j++ {
			if !bytes.Equal(answers[i][j], answers[i][0]) {
				t.Fatalf("%s body %d: sender %d got\n%.200s\nsender 0 got\n%.200s", c.path, i, j, answers[i][j], answers[i][0])
			}
		}
		if !memoised(s, c.body) {
			t.Fatalf("%s body %d not memoised", c.path, i)
		}
	}
}
