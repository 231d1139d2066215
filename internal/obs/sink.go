package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"unicode/utf8"
)

// MemorySink buffers records in memory; the test and debug sink. It
// also backs pestod's per-request span store: bounded, snapshot-able,
// safe for concurrent use.
type MemorySink struct {
	mu      sync.Mutex
	records []Record
	limit   int // 0 = unbounded
}

// NewMemorySink builds an unbounded memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// NewBoundedMemorySink builds a memory sink keeping the first limit
// records; later records are discarded.
func NewBoundedMemorySink(limit int) *MemorySink { return &MemorySink{limit: limit} }

// Record implements Sink.
func (m *MemorySink) Record(rec Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.limit > 0 && len(m.records) >= m.limit {
		return
	}
	m.records = append(m.records, rec)
}

// Records snapshots the buffered records.
func (m *MemorySink) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.records))
	copy(out, m.records)
	return out
}

// SlogSink delivers records as structured log lines. Combined with
// slog.NewJSONHandler this is the JSONL sink behind `-obs-log`.
type SlogSink struct {
	log *slog.Logger
}

// NewSlogSink wraps an existing logger (pestod's request logger).
func NewSlogSink(log *slog.Logger) *SlogSink { return &SlogSink{log: log} }

// NewJSONLSink builds a sink writing one JSON object per record to w.
// The handler serializes writes, so the sink is safe for concurrent
// use like any other.
func NewJSONLSink(w io.Writer) *SlogSink {
	return &SlogSink{log: slog.New(slog.NewJSONHandler(w, nil))}
}

// Record implements Sink.
func (s *SlogSink) Record(rec Record) {
	args := make([]any, 0, 10+2*len(rec.Attrs))
	args = append(args, "kind", rec.Kind.String(), "ts_us", rec.Ts.Microseconds())
	switch rec.Kind {
	case KindSpan:
		args = append(args, "dur_us", rec.Dur.Microseconds(), "span", rec.ID)
		if rec.Parent != 0 {
			args = append(args, "parent", rec.Parent)
		}
	case KindSample:
		args = append(args, "value", rec.Value)
	}
	for _, a := range rec.Attrs {
		args = append(args, a.Key, a.Value)
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, rec.Name, slog.Group("obs", args...))
}

const hexDigits = "0123456789abcdef"

// AppendAttrsJSON appends the attribute list to dst as a canonical
// JSON object — attrs in argument order, string values, manual
// escaping (control characters as \u00XX, invalid UTF-8 replaced) —
// and returns the extended slice. It is the encoder behind the spans
// debug endpoint and the Chrome Trace args, hand-rolled so the hot
// path allocates nothing beyond dst; FuzzAttrEncode holds it to
// json.Valid output for arbitrary input.
func AppendAttrsJSON(dst []byte, attrs []Attr) []byte {
	dst = append(dst, '{')
	for i, a := range attrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, a.Key)
		dst = append(dst, ':')
		dst = appendJSONString(dst, a.Value)
	}
	return append(dst, '}')
}

func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\':
				dst = append(dst, '\\', b)
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			case b < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			default:
				dst = append(dst, b)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, `�`...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}
