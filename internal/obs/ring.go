package obs

import (
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
// up to 512 values are copied to the stack, and the rank is selected
// there without sorting the whole window.
func Quantile(window *Ring[time.Duration], pct int) (q time.Duration, n int) {
	var stack [512]time.Duration
	vals := window.Snapshot(stack[:0])
	if n = len(vals); n == 0 {
		return 0, 0
	}
	return nth(vals, (pct*n+99)/100-1), n
}

// nth returns the k-th smallest value of xs (k from 0), reordering xs:
// quickselect with a median-of-three pivot and a three-way partition,
// so runs of equal values end the search instead of slowing it, and
// insertion sort once a range is short.
func nth(xs []time.Duration, k int) time.Duration {
	lo, hi := 0, len(xs)
	for hi-lo > 12 {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if a > b {
			a, b = b, a
		}
		p := min(max(a, c), b) // the median of a ≤ b and c
		// xs[lo:lt] < p, xs[lt:i] == p, xs[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[gt], xs[i] = v, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[k]
}
