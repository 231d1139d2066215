package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"

	"pesto/internal/obs"
)

// reqMeta is the request identity the flight recorder stamps into
// bundles: the request ID and (when the request arrived through the
// fleet router) its trace ID. It travels by context so detached
// cache-fill solves keep it.
type reqMeta struct {
	rid     string
	traceID string
}

type reqMetaKey struct{}

func withReqMeta(ctx context.Context, m reqMeta) context.Context {
	return context.WithValue(ctx, reqMetaKey{}, m)
}

func reqMetaFrom(ctx context.Context) reqMeta {
	m, _ := ctx.Value(reqMetaKey{}).(reqMeta)
	return m
}

// maxRequestIDLen caps client-supplied X-Request-ID values so a hostile
// header cannot bloat logs or the span store.
const maxRequestIDLen = 120

// requestSinkLimit bounds the per-request memory sink. A full solve
// emits tens of spans and a few hundred samples; 4096 leaves room for
// large B&B runs without letting one request hold megabytes.
const requestSinkLimit = 4096

// requestID returns the client's X-Request-ID when it is usable —
// printable ASCII, within length bounds — and otherwise generates one.
// The ID is echoed on the response, stamped into every log line and
// keys the span store, so one string follows a request through every
// telemetry surface.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > maxRequestIDLen {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return newRequestID()
		}
	}
	return id
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable in practice; a fixed ID
		// keeps the request serviceable and is only a telemetry label.
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// handleSpans serves GET /v1/requests/{id}/spans: the retained
// telemetry of one recent request — the span tree, counter flushes and
// solver progress samples — as JSON. Unknown or evicted IDs are 404.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	recs, ok := s.spans.Get(id)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "no spans retained for request id", RequestID: id})
		return
	}
	out := struct {
		RequestID string           `json:"requestId"`
		Records   []obs.SpanRecord `json:"records"`
	}{RequestID: id, Records: obs.SpanRecords(recs)}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleFlight serves GET /debug/flight: the flight recorder's
// always-on ring (the process's most recent telemetry across all
// requests, oldest first) plus the capture counters.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	recs := s.flight.Ring().Snapshot(nil)
	captured, dropped, total := s.flight.Stats()
	out := struct {
		Records            []obs.SpanRecord `json:"records"`
		TotalRecords       uint64           `json:"totalRecords"`
		BundlesCaptured    int              `json:"bundlesCaptured"`
		BundleFilesDropped int64            `json:"bundleFilesDropped"`
	}{Records: obs.SpanRecords(recs), TotalRecords: total, BundlesCaptured: captured, BundleFilesDropped: dropped}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
