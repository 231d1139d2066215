// Package obs is the telemetry core of the Pesto stack: hierarchical
// spans, monotonic counters and time-series samples, delivered to
// pluggable sinks. It is stdlib-only and dependency-free by design —
// every other package may import it, it imports nothing of Pesto.
//
// The contract that makes it safe to thread through hot paths is the
// nil no-op: a nil *Recorder (the state of every call site when no
// telemetry is configured) turns every method into a pointer check and
// a return. Start on a context without a recorder returns the context
// unchanged and a nil *Span whose End is equally free. The overhead of
// the disabled path is held to <2% of the placement pipeline by
// BenchmarkObsOverhead, which reports it as disabled_overhead_pct.
//
// Recorders travel by context (Into/From), so the solver layers —
// placement ladder, branch and bound, LP simplex, worker engine,
// serving layer — need no new parameters; spans nest across layers
// because Start stores the current span back into the context.
//
// See DESIGN.md, "Observability model".
package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute of a span or event. Values are
// strings; use the typed constructors (Int, F64, Dur) for non-string
// values so formatting is uniform across sinks.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// F64 builds a float attribute with shortest round-trip formatting.
func F64(k string, v float64) Attr { return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)} }

// Dur builds a duration attribute in Go duration syntax.
func Dur(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Kind classifies a Record.
type Kind int

const (
	// KindSpan is a completed span: Ts is its start offset, Dur its
	// length, ID/Parent its place in the hierarchy.
	KindSpan Kind = iota + 1
	// KindPoint is an instantaneous event.
	KindPoint
	// KindSample is one sample of a named time series (Value carries
	// the sampled quantity) — e.g. the branch-and-bound incumbent and
	// lower bound over time.
	KindSample
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindPoint:
		return "point"
	case KindSample:
		return "sample"
	default:
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Record is one telemetry record as delivered to sinks. Timestamps are
// offsets from the recorder's epoch (monotonic), so records from one
// recorder are mutually comparable and a trace starts near zero.
type Record struct {
	Kind   Kind
	Name   string
	Ts     time.Duration
	Dur    time.Duration // spans only
	ID     uint64        // spans only; unique within the recorder
	Parent uint64        // spans only; 0 = root
	Value  float64       // samples only
	Attrs  []Attr
}

// SpanRecord is the JSON wire form of a Record — kinds by name, times
// in nanoseconds, attributes folded into an object. The span dump, the
// flight ring and bundles, and the fleet trace stitcher all read and
// write this one shape.
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

// SpanRecords converts records to their wire form.
func SpanRecords(recs []Record) []SpanRecord {
	out := make([]SpanRecord, len(recs))
	for i, rec := range recs {
		out[i] = SpanRecord{Kind: rec.Kind.String(), Name: rec.Name, TsNs: int64(rec.Ts),
			DurNs: int64(rec.Dur), Span: rec.ID, Parent: rec.Parent, Value: rec.Value}
		if len(rec.Attrs) > 0 {
			out[i].Attrs = make(map[string]string, len(rec.Attrs))
			for _, a := range rec.Attrs {
				out[i].Attrs[a.Key] = a.Value
			}
		}
	}
	return out
}

// Sink consumes records. Implementations must be safe for concurrent
// use: spans end on whatever goroutine ran the work.
type Sink interface {
	Record(Record)
}

// Recorder is the telemetry hub: it stamps records against its epoch,
// assigns span IDs, accumulates counters and fans records out to its
// sinks. All methods are safe for concurrent use and all are no-ops on
// a nil receiver.
type Recorder struct {
	epoch  time.Time
	sinks  []Sink
	nextID atomic.Uint64

	mu       sync.Mutex
	counters map[string]*atomic.Int64
}

// NewRecorder builds a recorder delivering to the given sinks. A
// recorder with no sinks still accumulates counters.
func NewRecorder(sinks ...Sink) *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		sinks:    sinks,
		counters: make(map[string]*atomic.Int64),
	}
}

// Now is the offset from the recorder's epoch.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// emit stamps nothing — records arrive fully formed.
func (r *Recorder) emit(rec Record) {
	for _, s := range r.sinks {
		s.Record(rec)
	}
}

// Add increments the named counter. Counters are cumulative and cheap
// (one map lookup plus an atomic add); they are read back with
// Counters/Counter and optionally flushed to sinks with FlushCounters.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = new(atomic.Int64)
		r.counters[name] = c
	}
	r.mu.Unlock()
	c.Add(delta)
}

// Counter reads one counter (zero when never incremented).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Counters snapshots every counter.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// FlushCounters emits every counter as a final KindSample record named
// "counter.<name>", in sorted order so sinks see a deterministic
// sequence. Call it once, after the instrumented work finishes.
func (r *Recorder) FlushCounters() {
	if r == nil {
		return
	}
	snap := r.Counters()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	now := r.Now()
	for _, name := range names {
		r.emit(Record{Kind: KindSample, Name: "counter." + name, Ts: now, Value: float64(snap[name])})
	}
}

// Point emits an instantaneous event.
func (r *Recorder) Point(name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.emit(Record{Kind: KindPoint, Name: name, Ts: r.Now(), Attrs: attrs})
}

// Sample emits one sample of the named time series. Sinks that render
// timelines (the Chrome Trace sink path) plot repeated samples of one
// name as a counter track — the branch-and-bound convergence series
// (incumbent vs. lower bound) is emitted this way.
func (r *Recorder) Sample(name string, v float64, attrs ...Attr) {
	if r == nil {
		return
	}
	r.emit(Record{Kind: KindSample, Name: name, Ts: r.Now(), Value: v, Attrs: attrs})
}

// Span is one in-flight span. A nil *Span (the no-recorder case) is
// valid: End and Annotate are no-ops. A span belongs to the goroutine
// that started it until End; Annotate must not race with End.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	name   string
	start  time.Duration
	attrs  []Attr
}

// Annotate appends attributes to the span before it ends.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span, appending any final attributes, and delivers
// it to the recorder's sinks.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
	s.rec.emit(Record{
		Kind:   KindSpan,
		Name:   s.name,
		Ts:     s.start,
		Dur:    s.rec.Now() - s.start,
		ID:     s.id,
		Parent: s.parent,
		Attrs:  s.attrs,
	})
}

type recorderKey struct{}
type spanKey struct{}

// Into returns a context carrying the recorder. Instrumented layers
// retrieve it with From and start spans with Start.
func Into(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, r)
}

// From extracts the context's recorder, nil when none was attached.
// Every Recorder method tolerates the nil, so callers need no check.
func From(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}

// Start begins a span under the context's recorder and current span,
// returning a context carrying the new span (so child spans nest) and
// the span itself. Without a recorder it returns the context unchanged
// and a nil span — the disabled path allocates nothing.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	r := From(ctx)
	if r == nil {
		return ctx, nil
	}
	var parent uint64
	if ps, _ := ctx.Value(spanKey{}).(*Span); ps != nil {
		parent = ps.id
	}
	s := &Span{
		rec:    r,
		id:     r.nextID.Add(1),
		parent: parent,
		name:   name,
		start:  r.Now(),
		attrs:  attrs,
	}
	return context.WithValue(ctx, spanKey{}, s), s
}
