package obs

import (
	"slices"
	"sync"
	"time"
)

// Ring is a fixed-size ring buffer that overwrites its oldest value:
// it holds the newest size values added, returns them oldest first,
// and counts every value ever added. It backs the flight recorder's record
// ring and the latency windows behind Quantile. Safe for concurrent
// use.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	full  bool
	total uint64
}

// NewRing builds a ring holding size values.
func NewRing[T any](size int) *Ring[T] { return &Ring[T]{buf: make([]T, size)} }

// Add admits v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot appends the buffered values to dst, oldest first, and
// returns the extended slice.
func (r *Ring[T]) Snapshot(dst []T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		dst = append(dst, r.buf[r.next:]...)
	}
	return append(dst, r.buf[:r.next]...)
}

// Total reports how many values were ever added.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Quantile returns the nearest-rank pct-th percentile (1 ≤ pct ≤ 100)
// of the window's latencies — the value of rank ⌈pct·n/100⌉ in sorted
// order, 0 when empty — together with the window's size n. Windows of
// up to 512 values are sorted on the stack.
func Quantile(window *Ring[time.Duration], pct int) (q time.Duration, n int) {
	var stack [512]time.Duration
	sorted := window.Snapshot(stack[:0])
	if n = len(sorted); n == 0 {
		return 0, 0
	}
	slices.Sort(sorted)
	return sorted[(pct*n+99)/100-1], n
}

// Store is a bounded map from string keys to values with FIFO
// eviction: admitting a new key beyond the limit evicts the oldest,
// while a repeated key overwrites its value in place without taking a
// slot. It retains the span dumps of recent requests and the router's
// recent traces. Safe for concurrent use.
type Store[V any] struct {
	mu    sync.Mutex
	byKey map[string]V
	order []string
	limit int
}

// NewStore builds a store holding at most limit keys.
func NewStore[V any](limit int) *Store[V] {
	return &Store[V]{byKey: make(map[string]V), limit: limit}
}

// Put stores v under key.
func (s *Store[V]) Put(key string, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byKey[key]; !ok {
		for len(s.order) >= s.limit {
			delete(s.byKey, s.order[0])
			s.order = s.order[1:]
		}
		s.order = append(s.order, key)
	}
	s.byKey[key] = v
}

// Get reads the value stored under key.
func (s *Store[V]) Get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.byKey[key]
	return v, ok
}
