// Package flight is pestod's black-box flight recorder: a bounded
// in-memory ring of recent telemetry records that is always on, plus
// triggered capture of self-contained repro bundles. When a solve
// crosses its rolling-p99 baseline, the ladder degrades to the
// fallback rung, verification fails, or an SLO burns too fast, the
// recorder snapshots everything needed to re-execute the request —
// graph, options, seed, fingerprint, spans — into a JSON bundle that
// `pesto -replay-bundle` re-runs byte-deterministically.
//
// Like internal/obs it is stdlib-only and safe for concurrent use;
// the ring is an obs.Sink, so it taps the same per-request recorder
// the span store uses.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"pesto/internal/obs"
)

// Schema versions the bundle wire format.
const Schema = "pesto/flight-bundle/v1"

// Ring is a bounded ring buffer of telemetry records: the newest
// RingSize records of the process, overwriting the oldest. It
// implements obs.Sink so per-request recorders can tee into it.
type Ring struct {
	mu    sync.Mutex
	buf   []obs.Record
	next  int
	full  bool
	total uint64
}

// NewRing builds a ring holding size records (<=0 means 4096).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = 4096
	}
	return &Ring{buf: make([]obs.Record, size)}
}

// Record implements obs.Sink.
func (r *Ring) Record(rec obs.Record) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot copies the buffered records, oldest first.
func (r *Ring) Snapshot() []obs.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]obs.Record, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]obs.Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len reports how many records the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total reports how many records have ever been recorded.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// SpanRecord is the bundle's wire form of one telemetry record — the
// same shape the span-dump endpoint uses, so bundles and span dumps
// read identically.
type SpanRecord struct {
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	TsNs   int64             `json:"tsNs"`
	DurNs  int64             `json:"durNs,omitempty"`
	Span   uint64            `json:"span,omitempty"`
	Parent uint64            `json:"parent,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// FromObsRecords converts telemetry records to the bundle wire form.
func FromObsRecords(recs []obs.Record) []SpanRecord {
	out := make([]SpanRecord, 0, len(recs))
	for _, rec := range recs {
		sr := SpanRecord{
			Kind:   rec.Kind.String(),
			Name:   rec.Name,
			TsNs:   int64(rec.Ts),
			DurNs:  int64(rec.Dur),
			Span:   rec.ID,
			Parent: rec.Parent,
			Value:  rec.Value,
		}
		if len(rec.Attrs) > 0 {
			sr.Attrs = make(map[string]string, len(rec.Attrs))
			for _, a := range rec.Attrs {
				sr.Attrs[a.Key] = a.Value
			}
		}
		out = append(out, sr)
	}
	return out
}

// Bundle is one self-contained repro capture. Graph, Options and
// Response are the exact request/response bytes (already normalized by
// the service), so a replay re-executes the same solve: same graph,
// same options, same seed — and byte-identical output when Replayable.
type Bundle struct {
	Schema        string           `json:"schema"`
	Trigger       string           `json:"trigger"` // slow-solve | degraded-fallback | verify-failure | slo-fast-burn
	Detail        string           `json:"detail,omitempty"`
	CapturedAtNs  int64            `json:"capturedAtNs"`
	RequestID     string           `json:"requestId,omitempty"`
	TraceID       string           `json:"traceId,omitempty"`
	Fingerprint   string           `json:"fingerprint,omitempty"`
	Stage         string           `json:"stage,omitempty"`
	Seed          int64            `json:"seed,omitempty"`
	SolveNs       int64            `json:"solveNs,omitempty"`
	BaselineP99Ns int64            `json:"baselineP99Ns,omitempty"`
	Graph         json.RawMessage  `json:"graph,omitempty"`
	Options       json.RawMessage  `json:"options,omitempty"`
	Response      json.RawMessage  `json:"response,omitempty"`
	Spans         []SpanRecord     `json:"spans,omitempty"`
	Counters      map[string]int64 `json:"counters,omitempty"`
	// Replayable marks bundles carrying a complete (graph, options)
	// pair whose solve is expected to reproduce byte-identically.
	Replayable bool `json:"replayable"`
}

// ReadBundleFile loads and schema-checks a bundle.
func ReadBundleFile(path string) (Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Bundle{}, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return Bundle{}, fmt.Errorf("decode bundle %s: %w", path, err)
	}
	if b.Schema != Schema {
		return Bundle{}, fmt.Errorf("bundle %s: schema %q, want %q", path, b.Schema, Schema)
	}
	return b, nil
}

// defaultBaselineWindow is Config.BaselineWindow's default.
const defaultBaselineWindow = 512

// Config sizes a Recorder. Zero values mean defaults.
type Config struct {
	// Dir is where triggered bundles are written; empty means capture
	// in memory only (counted, returned to the caller, not persisted).
	Dir string
	// RingSize bounds the always-on record ring; zero means 4096.
	RingSize int
	// BaselineWindow is how many recent solve latencies the rolling
	// p99 baseline is computed over; zero means 512.
	BaselineWindow int
	// MinSamples is how many latencies the window needs before the
	// slow-solve trigger arms; zero means 32.
	MinSamples int
	// SlowFactor is the baseline multiplier that makes a solve "slow";
	// zero means 1.5 (a solve 50% over the rolling p99 triggers).
	SlowFactor float64
	// SlowFloor is the minimum duration a solve must exceed to trigger
	// regardless of baseline — it keeps microsecond cache-adjacent
	// noise from capturing bundles; zero means 25ms.
	SlowFloor time.Duration
	// MaxBundles caps bundle files written per process; zero means 64.
	// Past the cap, captures are still counted but not persisted.
	MaxBundles int
	// Clock stamps captures; nil means time.Now.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.BaselineWindow <= 0 {
		c.BaselineWindow = defaultBaselineWindow
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.SlowFactor <= 0 {
		c.SlowFactor = 1.5
	}
	if c.SlowFloor <= 0 {
		c.SlowFloor = 25 * time.Millisecond
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = 64
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Recorder is the per-process flight recorder: the always-on ring, the
// rolling latency baseline, and the bundle writer. All methods are
// safe for concurrent use; no goroutines are spawned.
type Recorder struct {
	cfg  Config
	ring *Ring

	mu      sync.Mutex
	lat     []time.Duration
	latNext int
	latFull bool
	seq     int
	written int
	dropped int64
}

// New builds a recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{cfg: cfg, ring: NewRing(cfg.RingSize)}
}

// Ring is the always-on record ring; register it as an obs sink.
func (r *Recorder) Ring() *Ring { return r.ring }

// SlowSolve checks d against the rolling p99 baseline and then admits
// it into the window (check-then-record: a latency never competes with
// itself). It reports whether d should trigger a capture and the
// baseline it was compared against (0 while the window is still
// arming).
func (r *Recorder) SlowSolve(d time.Duration) (slow bool, p99 time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lat == nil {
		r.lat = make([]time.Duration, r.cfg.BaselineWindow)
	}
	n := r.latNext
	if r.latFull {
		n = r.cfg.BaselineWindow
	}
	if n >= r.cfg.MinSamples {
		p99 = latP99(r.lat, n)
		if d >= r.cfg.SlowFloor && float64(d) > float64(p99)*r.cfg.SlowFactor {
			slow = true
		}
	}
	r.lat[r.latNext] = d
	r.latNext++
	if r.latNext == r.cfg.BaselineWindow {
		r.latNext = 0
		r.latFull = true
	}
	return slow, p99
}

// latP99 computes the 99th percentile of the window's first n entries
// (the live region: the whole buffer once the ring has wrapped).
func latP99(buf []time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	// The default window sorts on the stack; only a larger configured
	// one allocates.
	var stack [defaultBaselineWindow]time.Duration
	tmp := stack[:0]
	if n > len(stack) {
		tmp = make([]time.Duration, 0, n)
	}
	tmp = append(tmp, buf[:n]...)
	slices.Sort(tmp)
	idx := (99*n + 99) / 100 // ceil(0.99 n)
	if idx > n {
		idx = n
	}
	return tmp[idx-1]
}

// Capture stamps and persists a bundle, returning the file path
// (empty when Dir is unset or the MaxBundles cap was hit — the
// capture still counts either way) and the stamped bundle.
func (r *Recorder) Capture(b Bundle) (Bundle, string, error) {
	b.Schema = Schema
	b.CapturedAtNs = r.cfg.Clock().UnixNano()
	if b.Spans == nil {
		b.Spans = FromObsRecords(r.ring.Snapshot())
	}
	r.mu.Lock()
	seq := r.seq
	r.seq++
	persist := r.cfg.Dir != "" && r.written < r.cfg.MaxBundles
	if persist {
		r.written++
	} else if r.cfg.Dir != "" {
		r.dropped++
	}
	r.mu.Unlock()
	if !persist {
		return b, "", nil
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return b, "", err
	}
	data = append(data, '\n')
	path := filepath.Join(r.cfg.Dir, fmt.Sprintf("bundle-%06d-%s.json", seq, b.Trigger))
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return b, "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return b, "", err
	}
	return b, path, nil
}

// Stats reads the recorder's counters: bundles captured (persisted or
// not), bundle files dropped by the MaxBundles cap, and the ring's
// lifetime record count.
func (r *Recorder) Stats() (captured int, droppedFiles int64, ringTotal uint64) {
	r.mu.Lock()
	captured = r.seq
	droppedFiles = r.dropped
	r.mu.Unlock()
	return captured, droppedFiles, r.ring.Total()
}
