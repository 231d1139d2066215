package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
)

// requestQuirks are request bodies on each point where the envelope
// decode must match encoding/json; the graph member's own quirks are
// internal/graph's fuzz seeds.
var requestQuirks = []string{
	// Keys fold case, with the Kelvin sign and the long s; the last of
	// repeated members wins, and repeated options merge field by field.
	`{"GRAPH":{"nodes":[{"id":0}]},"Options":{"GPUs":4}}`,
	`{"graph":{"nodes":[{"id":0}]},"option\u017f":{"budgetMſ":7}}`,
	`{"graph":{"nodes":[{"id":0}]},"options":{"gpus":4},"options":{"budgetMs":9}}`,
	`{"graph":{"nodes":[{"id":0}]},"graph":{"nodes":[{"id":0},{"id":1}]}}`,
	`{"graph":{"nodes":[{"id":1}]},"graph":{"nodes":[{"id":0}]}}`,
	`{"graph":{"nodes":[{"id":0}]},"graph":null}`,
	`{"graph":null,"graph":{"nodes":[{"id":0}]}}`,
	// null at the top or as a member.
	`null`,
	`{"graph":{"nodes":[{"id":0}]},"options":null}`,
	// Unknown members are rejected in the envelope and in options.
	`{"graph":{"nodes":[{"id":0}]},"bogus":1}`,
	`{"graph":{"nodes":[{"id":0}]},"options":{"bogus":1}}`,
	`{"graph":{"nodes":[{"id":0}],"bogus":1}}`,
	// Type errors in either member.
	`{"graph":5}`,
	`{"graph":[]}`,
	`{"graph":"x"}`,
	`{"graph":{"nodes":[{"id":0}]},"options":{"gpus":2.0}}`,
	`{"graph":{"nodes":[{"id":0}]},"options":[]}`,
	// The nesting limit counts from the envelope, not the graph.
	`{"graph":{"nodes":[{"id":0}],"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}}`,
	`{"graph":{"nodes":[{"id":0}],"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}}`,
	// Exactly one value, then only whitespace.
	`{"graph":{"nodes":[{"id":0}]}}]]]}`,
	`{"graph":{"nodes":[{"id":0}]}}}`,
	"{\"graph\":{\"nodes\":[{\"id\":0}]}} \n",
	// The node cap (1000 in the fuzz target) is checked only after the
	// whole body decoded.
	`{"graph":` + chainGraph(1001) + `}`,
	`{"graph":` + chainGraph(1001) + `,"bogus":1}`,
}

// chainGraph is the JSON of an n-node chain.
func chainGraph(n int) string {
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d}`, i)
	}
	b.WriteString(`],"edges":[`)
	for i := 1; i < n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"from":%d,"to":%d}`, i-1, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// FuzzDecodePlaceRequest holds the request decoder to its contract: any
// input either decodes into a valid request or fails with an error that
// maps to a 4xx (ErrBadRequest or ErrTooLarge). Nothing a client sends
// may panic the daemon. It also holds the decoder to its reflective
// twin: both accept the same inputs, reject the rest with the same
// error class, and decode accepted ones to equal graphs and options.
func FuzzDecodePlaceRequest(f *testing.F) {
	g, err := gen.Generate(gen.Config{Family: gen.Diamond, Seed: 1, Nodes: 8})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(PlaceRequest{Graph: g, Options: RequestOptions{BudgetMs: 100}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`{"graph": null}`)
	f.Add(`{"graph": {"nodes": [], "edges": []}}`)
	f.Add(`{"graph": {"nodes": [{"id": 0, "kind": "gpu"}], "edges": [{"from": 0, "to": 0}]}}`)
	f.Add(`{"graph": {"nodes": [{"id": 5}]}}`)
	f.Add(`{"options": {"gpus": -1}}`)
	f.Add(`{} {}`)
	f.Add(`[1,2,3]`)
	f.Add(`"`)
	f.Add(strings.Repeat("9", 4096))
	for _, s := range requestQuirks {
		f.Add(s)
	}
	for _, body := range zipfBodies(f) {
		f.Add(string(body))
	}

	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodePlaceRequest(strings.NewReader(body), 1<<20, 1000)
		want, werr := oracleDecodePlaceRequest(strings.NewReader(body), 1<<20, 1000)
		if (err == nil) != (werr == nil) ||
			errors.Is(err, ErrBadRequest) != errors.Is(werr, ErrBadRequest) ||
			errors.Is(err, ErrTooLarge) != errors.Is(werr, ErrTooLarge) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("error %v maps to 500, want a 4xx error", err)
			}
			return
		}
		if req == nil || req.Graph == nil {
			t.Fatal("nil request without error")
		}
		if d := requestDiff(req, want); d != "" {
			t.Fatalf("decoder and encoding/json disagree: %s", d)
		}
		// A decoded graph must be structurally valid: the solver relies
		// on it downstream.
		if err := req.Graph.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid graph: %v", err)
		}
		// Options must either normalize or reject as a bad request.
		if _, err := req.Options.normalized(Config{}.withDefaults()); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("normalize error %v is not ErrBadRequest", err)
		}
	})
}

// FuzzPlaceHandler drives the full HTTP surface: malformed bodies must
// come back 400/413, never 500, and never crash the server. Every input
// is sent twice through the one server, and the second send must get
// the first one's status and body: the decode memo (and the plan cache)
// may make an answer cheaper, never different.
func FuzzPlaceHandler(f *testing.F) {
	f.Add(`{"graph": [`)
	f.Add(`{"graph": {"nodes": [{"id": 0, "kind": "gpu", "costNanos": 5}], "edges": []}, "options": {"budgetMs": 1}}`)
	f.Add(``)

	s := New(Config{MaxBodyBytes: 1 << 16, MaxGraphNodes: 64, DefaultBudget: 10 * time.Millisecond})
	f.Fuzz(func(t *testing.T, body string) {
		rec := serve(s, "/v1/place", []byte(body))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("non-2xx body %q is not an ErrorResponse", rec.Body.String())
			}
		} else if !bytes.Contains(rec.Body.Bytes(), []byte(`"verified":true`)) {
			t.Fatalf("200 response without verified plan: %s", rec.Body.String())
		}
		again := serve(s, "/v1/place", []byte(body))
		if again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("body %q answered %d %s, then %d %s", body, rec.Code, rec.Body.Bytes(), again.Code, again.Body.Bytes())
		}
	})
}

// requestDiff describes the first difference between two decoded
// requests: options, nodes, adjacency order or fingerprint.
func requestDiff(a, b *PlaceRequest) string {
	if a.Options != b.Options {
		return fmt.Sprintf("options %+v vs %+v", a.Options, b.Options)
	}
	if !reflect.DeepEqual(a.Graph.Nodes(), b.Graph.Nodes()) {
		return fmt.Sprintf("nodes %+v vs %+v", a.Graph.Nodes(), b.Graph.Nodes())
	}
	if !reflect.DeepEqual(a.Graph.Edges(), b.Graph.Edges()) {
		return fmt.Sprintf("edges %v vs %v", a.Graph.Edges(), b.Graph.Edges())
	}
	for i := 0; i < a.Graph.NumNodes(); i++ {
		id := graph.NodeID(i)
		if !reflect.DeepEqual(a.Graph.Pred(id), b.Graph.Pred(id)) {
			return fmt.Sprintf("pred(%d) %v vs %v", i, a.Graph.Pred(id), b.Graph.Pred(id))
		}
	}
	if a.Graph.Fingerprint() != b.Graph.Fingerprint() {
		return "fingerprints differ"
	}
	return ""
}
