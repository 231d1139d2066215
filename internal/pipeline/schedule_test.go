package pipeline

import (
	"strings"
	"testing"
)

// TestStageOrderGolden pins the exact schedule strings for S=4, M=4 —
// the textbook GPipe fill-drain and 1F1B (PipeDream-flush) diagrams.
func TestStageOrderGolden(t *testing.T) {
	const S, M = 4, 4
	cases := []struct {
		kind  ScheduleKind
		stage int
		want  string
	}{
		{ScheduleGPipe, 0, "F0 F1 F2 F3 B3 B2 B1 B0"},
		{ScheduleGPipe, 3, "F0 F1 F2 F3 B3 B2 B1 B0"},
		{Schedule1F1B, 0, "F0 F1 F2 F3 B0 B1 B2 B3"},
		{Schedule1F1B, 1, "F0 F1 F2 B0 F3 B1 B2 B3"},
		{Schedule1F1B, 2, "F0 F1 B0 F2 B1 F3 B2 B3"},
		{Schedule1F1B, 3, "F0 B0 F1 B1 F2 B2 F3 B3"},
	}
	for _, c := range cases {
		got := formatOrder(StageOrder(c.kind, c.stage, S, M))
		if got != c.want {
			t.Errorf("%v stage %d: %q, want %q", c.kind, c.stage, got, c.want)
		}
	}
	if got := formatOrder(ForwardOrder(3)); got != "F0 F1 F2" {
		t.Errorf("ForwardOrder(3) = %q", got)
	}
}

// TestStageOrderComplete: every (kind, stage) order contains each
// microbatch's forward and backward exactly once, forward first.
func TestStageOrderComplete(t *testing.T) {
	for _, kind := range []ScheduleKind{ScheduleGPipe, Schedule1F1B} {
		for S := 1; S <= 5; S++ {
			for M := 1; M <= 6; M++ {
				for s := 0; s < S; s++ {
					order := StageOrder(kind, s, S, M)
					if len(order) != 2*M {
						t.Fatalf("%v S=%d M=%d stage %d: %d slots, want %d", kind, S, M, s, len(order), 2*M)
					}
					fwdAt := make([]int, M)
					seenF := make([]bool, M)
					seenB := make([]bool, M)
					for i, sl := range order {
						if sl.MB < 0 || sl.MB >= M {
							t.Fatalf("%v S=%d M=%d stage %d: slot %v out of range", kind, S, M, s, sl)
						}
						if sl.Backward {
							if seenB[sl.MB] {
								t.Fatalf("%v S=%d M=%d stage %d: duplicate %v", kind, S, M, s, sl)
							}
							if !seenF[sl.MB] || fwdAt[sl.MB] > i {
								t.Fatalf("%v S=%d M=%d stage %d: backward %d before its forward", kind, S, M, s, sl.MB)
							}
							seenB[sl.MB] = true
						} else {
							if seenF[sl.MB] {
								t.Fatalf("%v S=%d M=%d stage %d: duplicate %v", kind, S, M, s, sl)
							}
							seenF[sl.MB] = true
							fwdAt[sl.MB] = i
						}
					}
				}
			}
		}
	}
}

// TestStageOrder1F1BInFlight: the warmup depth bounds in-flight
// microbatches at min(S-s, M) — the property that makes 1F1B's
// activation memory independent of M.
func TestStageOrder1F1BInFlight(t *testing.T) {
	for S := 1; S <= 6; S++ {
		for M := 1; M <= 8; M++ {
			for s := 0; s < S; s++ {
				bound := S - s
				if bound > M {
					bound = M
				}
				inFlight, peak := 0, 0
				for _, sl := range StageOrder(Schedule1F1B, s, S, M) {
					if sl.Backward {
						inFlight--
					} else {
						inFlight++
					}
					if inFlight > peak {
						peak = inFlight
					}
				}
				if peak > bound {
					t.Errorf("S=%d M=%d stage %d: peak in-flight %d exceeds bound %d", S, M, s, peak, bound)
				}
			}
		}
	}
}

// formatOrder renders a stage order as "F0 F1 B0 ...".
func formatOrder(order []Slot) string {
	parts := make([]string, len(order))
	for i, s := range order {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}
