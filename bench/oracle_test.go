package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

func TestMain(m *testing.M) {
	stderr = io.Discard // drift and sample-count notes are not test output
	m.Run()
}

// oracleFixture is one small graph with a valid plan and its references.
func oracleFixture(t *testing.T) *output {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: corpusSeed, Nodes: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(2, gpuMem)
	plan, _, _, err := baselines.BestBaechi(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	ref, lb, err := reference(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	return &output{g: g, sys: sys, plan: plan, ref: ref, lb: lb}
}

// TestOracleTurnsBadOutputsIntoFailedOps holds the three ways an op can
// return in time and still be wrong: each must count as a failed op and
// must not contribute a timing sample.
func TestOracleTurnsBadOutputsIntoFailedOps(t *testing.T) {
	classes := []class{{name: "c", limit: time.Second}}

	good := oracleFixture(t)
	corrupted := oracleFixture(t)
	corrupted.plan = corrupted.plan.Clone()
	for i, n := range corrupted.g.Nodes() {
		if n.Kind == graph.KindGPU {
			corrupted.plan.Device[i] = corrupted.sys.CPUID() // a GPU op on the CPU
			break
		}
	}
	tooFast := oracleFixture(t)
	res, err := verify.Check(tooFast.g, tooFast.sys, tooFast.plan)
	if err != nil {
		t.Fatal(err)
	}
	tooFast.lb = res.Makespan + 1

	cases := []struct {
		name string
		s    sample
		want error // nil: any failure
	}{
		{"corrupted plan", sample{dur: time.Millisecond, speed: 1, out: corrupted}, verify.ErrInvariant},
		{"makespan below the lower bound", sample{dur: time.Millisecond, speed: 1, out: tooFast}, errBelowBound},
		{"hit/miss byte mismatch", sample{dur: time.Millisecond, speed: 1, out: good, err: errMismatch}, errMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples := []sample{{dur: time.Millisecond, speed: 1, out: oracleFixture(t)}, tc.s}
			v := judge(classes, samples, nil)
			if v.failed != 1 || v.within != 1 {
				t.Fatalf("failed %d within %d, want 1 and 1", v.failed, v.within)
			}
			if !errors.Is(samples[1].err, tc.want) {
				t.Fatalf("err = %v, want %v", samples[1].err, tc.want)
			}
			stats := classStats(classes, samples, v.over, false)
			if stats[0].Samples != 1 || stats[0].Failed != 1 {
				t.Fatalf("timing samples %d failed %d, want 1 and 1: a failed op must not be timed", stats[0].Samples, stats[0].Failed)
			}
			if v.quality <= 0 {
				t.Fatalf("quality %v: the succeeded op must still be scored", v.quality)
			}
		})
	}
}

// TestServeRequestDetectsChangedBytes drives the serving client against
// a handler whose second answer for a key differs from its first.
func TestServeRequestDetectsChangedBytes(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("X-Pesto-Cache", "hit")
		fmt.Fprintf(w, `{"answer":%d}`, min(calls, 2))
	}))
	defer srv.Close()
	inst := &serveInstance{url: srv.URL, keys: []serveKey{{body: []byte("{}"), out: &output{}}}}
	client := inst.newClient()
	defer inst.transports[0].CloseIdleConnections()

	first := inst.request(context.Background(), client, 0)
	second := inst.request(context.Background(), client, 0)
	third := inst.request(context.Background(), client, 0)
	if first.err != nil || first.class != serveHit {
		t.Fatalf("first answer: err %v class %d", first.err, first.class)
	}
	if !errors.Is(second.err, errMismatch) {
		t.Fatalf("changed bytes: err = %v, want errMismatch", second.err)
	}
	if !errors.Is(third.err, errMismatch) {
		t.Fatalf("the first answer stays the yardstick: err = %v, want errMismatch", third.err)
	}
}

// TestRefusedRequestIsAFailedOp: a 429 is an attempted op that got no
// plan.
func TestRefusedRequestIsAFailedOp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	inst := &serveInstance{url: srv.URL, keys: []serveKey{{body: []byte("{}"), out: &output{}}}}
	client := inst.newClient()
	defer inst.transports[0].CloseIdleConnections()
	s := inst.request(context.Background(), client, 0)
	var refused refusedError
	if !errors.As(s.err, &refused) || refused.status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want refusedError 429", s.err)
	}
}
