package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pesto/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// syncBuffer makes a bytes.Buffer safe for the logger, which may be
// written from solver goroutines while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDPropagation follows one ID through every telemetry
// surface: the response header echoes it, the span dump is keyed by
// it, and every JSONL log line carries it.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	const rid = "test-req-42"
	body := testBody(t, 1, fastOptions())
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/place", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("X-Request-ID echoed as %q, want %q", got, rid)
	}

	sr, err := http.Get(ts.URL + "/v1/requests/" + rid + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, sr)
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("span dump status %d: %s", sr.StatusCode, data)
	}
	var dump struct {
		RequestID string           `json:"requestId"`
		Records   []obs.SpanRecord `json:"records"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("span dump not JSON: %v", err)
	}
	if dump.RequestID != rid {
		t.Fatalf("span dump for %q, want %q", dump.RequestID, rid)
	}
	names := map[string]bool{}
	for _, r := range dump.Records {
		names[r.Name] = true
	}
	if !names["placement.place"] {
		t.Fatalf("span dump misses the placement.place span: %v", names)
	}
	if !names["placement.stage"] {
		t.Fatalf("span dump misses the ladder-rung span: %v", names)
	}

	logText := logBuf.String()
	if logText == "" {
		t.Fatal("no log lines emitted")
	}
	for i, line := range strings.Split(strings.TrimSpace(logText), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line %d not JSON: %v (%s)", i, err, line)
		}
		if entry["requestId"] != rid {
			t.Fatalf("log line %d requestId = %v, want %q (%s)", i, entry["requestId"], rid, line)
		}
	}
}

// TestRequestIDGenerated: absent or unusable client IDs are replaced
// with a generated one rather than echoed.
func TestRequestIDGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := testBody(t, 1, fastOptions())
	// Control characters cannot travel through the Go HTTP client at
	// all; sanitization of those is covered below via requestID directly.
	req, err := http.NewRequest(http.MethodGet, "http://example/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "bad\x01id")
	if got := requestID(req); got == "bad\x01id" || got == "" {
		t.Errorf("control bytes: requestID = %q, want a generated id", got)
	}
	for name, hdr := range map[string]string{
		"absent":     "",
		"overlong":   strings.Repeat("x", maxRequestIDLen+1),
		"with-space": "two words",
		"non-ascii":  "идентификатор",
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/place", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hdr != "" {
			req.Header.Set("X-Request-ID", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		got := resp.Header.Get("X-Request-ID")
		if got == "" || got == hdr {
			t.Errorf("%s: X-Request-ID = %q, want a generated id", name, got)
		}
	}
}

// TestErrorResponseCarriesRequestID: error bodies include the same ID
// the header carries, so a quoted error is traceable.
func TestErrorResponseCarriesRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/place", []byte("{"))
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID == "" || er.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("body requestId %q, header %q: want equal and non-empty", er.RequestID, resp.Header.Get("X-Request-ID"))
	}
}

func TestSpansUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/requests/nope/spans")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestSpanStoreEviction: the span store keeps the dumps of the last
// SpanHistory requests.
func TestSpanStoreEviction(t *testing.T) {
	st := New(Config{SpanHistory: 3}).spans
	for i := 0; i < 5; i++ {
		st.Put(fmt.Sprintf("r%d", i), nil)
	}
	for i := 0; i < 2; i++ {
		if _, ok := st.Get(fmt.Sprintf("r%d", i)); ok {
			t.Errorf("r%d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := st.Get(fmt.Sprintf("r%d", i)); !ok {
			t.Errorf("r%d evicted too early", i)
		}
	}
	// A repeated ID overwrites in place without consuming a slot.
	st.Put("r4", []obs.Record{{Name: "again"}})
	if _, ok := st.Get("r2"); !ok {
		t.Error("overwriting r4 evicted r2")
	}
	if recs, _ := st.Get("r4"); len(recs) != 1 || recs[0].Name != "again" {
		t.Errorf("r4 = %+v, want the overwriting records", recs)
	}
}

// TestMetricsGoldenIdle pins the full exposition of a fresh server:
// the emission order is sorted and deterministic, so the idle scrape
// is byte-identical across runs and refactors. Regenerate with
// -update.
func TestMetricsGoldenIdle(t *testing.T) {
	s := New(Config{})
	var buf bytes.Buffer
	s.met.write(&buf)
	golden := filepath.Join("testdata", "metrics_idle.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("idle metrics exposition changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// And a second write is byte-identical to the first.
	var again bytes.Buffer
	s.met.write(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("consecutive idle writes differ")
	}
}
