package service

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pesto/internal/flight"
	"pesto/internal/obs"
)

// hairTriggerFlight swaps in a flight recorder that flags every solve
// after the first as slow, so tests can force captures without real
// slowness.
func hairTriggerFlight(s *Server, dir string) {
	s.flight = flight.New(flight.Config{
		Dir:        dir,
		MinSamples: 1,
		SlowFactor: 1e-9,
		SlowFloor:  time.Nanosecond,
	})
}

// TestFlightCaptureAndReplay drives two solves through the HTTP
// surface, lets the second trigger a slow-solve bundle, and replays
// the bundle: the re-executed solve must reproduce the served response
// byte-for-byte.
func TestFlightCaptureAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	hairTriggerFlight(s, dir)

	opts := fastOptions()
	opts.NoCache = true // every request must really solve
	readAll(t, post(t, ts.URL+"/v1/place", testBody(t, 1, opts)))
	served := readAll(t, post(t, ts.URL+"/v1/place", testBody(t, 2, opts)))

	matches, err := filepath.Glob(filepath.Join(dir, "bundle-*-slow-solve.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no slow-solve bundle written (err=%v)", err)
	}
	b, err := flight.ReadBundleFile(matches[0])
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	if !b.Replayable || b.RequestID == "" || b.Seed != 0 && b.Seed != opts.Seed {
		t.Fatalf("bundle incomplete: %+v", b)
	}
	if string(compactJSON(b.Response)) != strings.TrimSpace(string(served)) {
		t.Fatalf("bundle response differs from served bytes")
	}

	res, err := ReplayBundle(context.Background(), b, 0)
	if err != nil {
		t.Fatalf("ReplayBundle: %v", err)
	}
	if !res.Match {
		t.Fatalf("replay mismatch:\ngot:  %s\nwant: %s", res.Got, res.Want)
	}
	// And again at a different worker count: bytes must not move.
	res1, err := ReplayBundle(context.Background(), b, 1)
	if err != nil || !res1.Match {
		t.Fatalf("replay at parallel=1: match=%v err=%v", res1.Match, err)
	}
}

func TestReplayBundleRejectsNonReplayable(t *testing.T) {
	if _, err := ReplayBundle(context.Background(), flight.Bundle{Trigger: "slo-fast-burn"}, 0); err == nil {
		t.Fatalf("non-replayable bundle accepted")
	}
}

// TestDebugFlightEndpoint checks the always-on ring surfaces request
// telemetry at GET /debug/flight.
func TestDebugFlightEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	readAll(t, post(t, ts.URL+"/v1/place", testBody(t, 3, fastOptions())))

	resp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatalf("GET /debug/flight: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Records      []obs.SpanRecord `json:"records"`
		TotalRecords uint64           `json:"totalRecords"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Records) == 0 || out.TotalRecords == 0 {
		t.Fatalf("ring empty after a solve: %d records, total %d", len(out.Records), out.TotalRecords)
	}
}

// TestTraceHeaderTagging checks a request arriving with a fleet trace
// context echoes it and tags its span dump with the hop.
func TestTraceHeaderTagging(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/place",
		strings.NewReader(string(testBody(t, 4, fastOptions()))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Pesto-Trace", "trace-abc;hop=2;parent=0")
	req.Header.Set("X-Request-ID", "trace-abc.h2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got := resp.Header.Get("X-Pesto-Trace"); got != "trace-abc;hop=2;parent=0" {
		t.Fatalf("trace header not echoed: %q", got)
	}

	dump := readAll(t, mustGet(t, ts.URL+"/v1/requests/trace-abc.h2/spans"))
	var out struct {
		Records []obs.SpanRecord `json:"records"`
	}
	if err := json.Unmarshal(dump, &out); err != nil {
		t.Fatalf("decode span dump: %v", err)
	}
	found := false
	for _, r := range out.Records {
		if r.Kind == "point" && r.Name == "fleet.hop" &&
			r.Attrs["traceId"] == "trace-abc" && r.Attrs["hop"] == "2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet.hop tag missing from span dump: %s", dump)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}
