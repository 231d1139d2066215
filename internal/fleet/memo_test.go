package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRouterMemoSameReplica holds the router's fingerprint memo to the
// routing a cold decode gives: a repeated body (a memo hit) goes to the
// replica that served it first and that a fresh router, decoding it
// cold, picks too, and it gets the same bytes.
func TestRouterMemoSameReplica(t *testing.T) {
	rt, _ := newServiceFleet(t, 3, Config{DisableHedge: true})
	backends := make([]Backend, len(rt.reps))
	for i, r := range rt.reps {
		backends[i] = r.b
	}
	for seed := int64(1); seed <= 6; seed++ {
		body, fp := placeBody(t, seed)
		first := postJSON(t, rt, "/v1/place", body)
		if first.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, first.Code, first.Body.Bytes())
		}
		digest := sha256.Sum256(body)
		if got, ok := rt.fps.Peek(digest); !ok || got != fp {
			t.Fatalf("seed %d: memo holds %x (%v), want the graph fingerprint %x", seed, got, ok, fp)
		}
		repeat := postJSON(t, rt, "/v1/place", body)
		fresh, err := New(Config{DisableHedge: true}, backends...)
		if err != nil {
			t.Fatal(err)
		}
		cold := postJSON(t, fresh, "/v1/place", body)
		if repeat.Code != http.StatusOK || cold.Code != http.StatusOK {
			t.Fatalf("seed %d: memo hit status %d, cold decode status %d", seed, repeat.Code, cold.Code)
		}
		want := first.Header().Get("X-Pesto-Replica")
		if r, c := repeat.Header().Get("X-Pesto-Replica"), cold.Header().Get("X-Pesto-Replica"); r != want || c != want {
			t.Fatalf("seed %d: first served by %s, memo hit by %s, cold decode by %s", seed, want, r, c)
		}
		if !bytes.Equal(repeat.Body.Bytes(), first.Body.Bytes()) || !bytes.Equal(cold.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("seed %d: answers differ", seed)
		}
	}
}

// TestRouterMemoRejectsEveryTime sends bodies the router rejects twice:
// both sends get the same status and bytes, no replica sees either, and
// neither is memoised. Options a replica would refuse are among them.
func TestRouterMemoRejectsEveryTime(t *testing.T) {
	var forwarded atomic.Int64
	backends := make([]Backend, 2)
	for i := range backends {
		backends[i] = &fakeBackend{id: fmt.Sprintf("r%d", i), fn: func(context.Context, string, string, []byte) (*Response, error) {
			forwarded.Add(1)
			return ok200("{}"), nil
		}}
	}
	rt, err := New(Config{DisableHedge: true}, backends...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		code int
	}{
		{"malformed", []byte(`{"graph": [`), http.StatusBadRequest},
		{"empty graph", []byte(`{"graph":{"nodes":[]}}`), http.StatusBadRequest},
		{"options", []byte(`{"graph":{"nodes":[{"id":0}]},"options":{"gpus":1}}`), http.StatusBadRequest},
		{"over the body limit", []byte(`{"graph":` + strings.Repeat(" ", 32<<20) + `}`), http.StatusRequestEntityTooLarge},
	} {
		first := postJSON(t, rt, "/v1/place", c.body)
		second := postJSON(t, rt, "/v1/place", c.body)
		if first.Code != c.code || second.Code != c.code {
			t.Fatalf("%s: statuses %d then %d, want %d", c.name, first.Code, second.Code, c.code)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("%s: rejections differ:\n%s\n%s", c.name, first.Body.Bytes(), second.Body.Bytes())
		}
		if n := forwarded.Load(); n != 0 {
			t.Fatalf("%s: %d requests reached a replica", c.name, n)
		}
		digest := sha256.Sum256(c.body)
		if _, ok := rt.fps.Peek(digest); ok {
			t.Fatalf("%s: rejected body memoised", c.name)
		}
	}
	if n := rt.fps.Len(); n != 0 {
		t.Fatalf("memo holds %d entries after rejections only", n)
	}
}
