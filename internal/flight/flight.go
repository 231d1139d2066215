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
// the recorder is an obs.Sink over an obs.Ring, so it taps the same
// per-request recorder the span store uses.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pesto/internal/obs"
)

// Schema versions the bundle wire format.
const Schema = "pesto/flight-bundle/v1"

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
	Spans         []obs.SpanRecord `json:"spans,omitempty"`
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

// Config sizes a Recorder. Zero values mean defaults.
type Config struct {
	// Dir is where triggered bundles are written; empty means capture
	// in memory only (counted, returned to the caller, not persisted).
	Dir string
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

const (
	// ringSize bounds the always-on record ring.
	ringSize = 4096
	// baselineWindow is how many recent solve latencies the rolling p99
	// baseline is computed over.
	baselineWindow = 512
)

func (c Config) withDefaults() Config {
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
// rolling latency baseline, and the bundle writer. It implements
// obs.Sink by admitting records to the ring, so per-request recorders
// tee into it. All methods are safe for concurrent use; no goroutines
// are spawned.
type Recorder struct {
	cfg  Config
	ring *obs.Ring[obs.Record]
	lat  *obs.Ring[time.Duration]

	mu      sync.Mutex
	seq     int
	written int
	dropped int64
}

// New builds a recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:  cfg,
		ring: obs.NewRing[obs.Record](ringSize),
		lat:  obs.NewRing[time.Duration](baselineWindow),
	}
}

// Record implements obs.Sink.
func (r *Recorder) Record(rec obs.Record) { r.ring.Add(rec) }

// Ring is the always-on record ring: the newest RingSize records of
// the process, oldest first.
func (r *Recorder) Ring() *obs.Ring[obs.Record] { return r.ring }

// SlowSolve checks d against the rolling p99 baseline and then admits
// it into the window (check-then-record: a latency never competes with
// itself). It reports whether d should trigger a capture and the
// baseline it was compared against (0 while the window is still
// arming).
func (r *Recorder) SlowSolve(d time.Duration) (slow bool, p99 time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, n := obs.Quantile(r.lat, 99); n >= r.cfg.MinSamples {
		p99 = q
		slow = d >= r.cfg.SlowFloor && float64(d) > float64(p99)*r.cfg.SlowFactor
	}
	r.lat.Add(d)
	return slow, p99
}

// Capture stamps and persists a bundle, returning the file path
// (empty when Dir is unset or the MaxBundles cap was hit — the
// capture still counts either way) and the stamped bundle.
func (r *Recorder) Capture(b Bundle) (Bundle, string, error) {
	b.Schema = Schema
	b.CapturedAtNs = r.cfg.Clock().UnixNano()
	if b.Spans == nil {
		b.Spans = obs.SpanRecords(r.ring.Snapshot(nil))
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
