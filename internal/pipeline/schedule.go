package pipeline

import "fmt"

// Slot is one entry of a stage's local execution order: which
// microbatch, and whether the forward or backward task runs.
type Slot struct {
	MB       int
	Backward bool
}

// String renders a slot as F3 / B0 — the notation the golden schedule
// tests pin.
func (s Slot) String() string {
	if s.Backward {
		return fmt.Sprintf("B%d", s.MB)
	}
	return fmt.Sprintf("F%d", s.MB)
}

// StageOrder returns the local execution order of stage s (0-based) of
// S under the given discipline with M microbatches. Forward-only
// pipelines (Options.BackwardRatio < 0) use ForwardOrder instead.
//
// GPipe fills then drains: all M forwards in microbatch order, then
// all M backwards in LIFO order (the last activation computed is the
// first consumed, which is also the order the backward dependencies
// make available soonest on the last stage).
//
// 1F1B (PipeDream-flush) warms up with min(S-1-s, M) forwards, then
// alternates one forward with one backward until the forwards are
// exhausted, and drains the remaining backwards. The warmup depth is
// what bounds the stage's live activations near its distance from the
// end of the pipeline instead of M.
func StageOrder(kind ScheduleKind, s, S, M int) []Slot {
	order := make([]Slot, 0, 2*M)
	switch kind {
	case Schedule1F1B:
		w := S - 1 - s
		if w > M {
			w = M
		}
		for m := 0; m < w; m++ {
			order = append(order, Slot{MB: m})
		}
		for m := w; m < M; m++ {
			order = append(order, Slot{MB: m}, Slot{MB: m - w, Backward: true})
		}
		for m := M - w; m < M; m++ {
			order = append(order, Slot{MB: m, Backward: true})
		}
	default: // ScheduleGPipe
		for m := 0; m < M; m++ {
			order = append(order, Slot{MB: m})
		}
		for m := M - 1; m >= 0; m-- {
			order = append(order, Slot{MB: m, Backward: true})
		}
	}
	return order
}

// ForwardOrder is the degenerate discipline of an inference pipeline:
// every stage runs its M forwards in microbatch order.
func ForwardOrder(M int) []Slot {
	order := make([]Slot, M)
	for m := range order {
		order[m] = Slot{MB: m}
	}
	return order
}
