package placement

import (
	"context"
	"errors"
	"testing"
	"time"

	"pesto/internal/obs"
	"pesto/internal/sim"
)

// TestStageReportsHappyPath: the winning rung is the only report and
// carries its wall time with a nil Err.
func TestStageReportsHappyPath(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{ILPTimeLimit: 5 * time.Second})
	st := res.Provenance.Stages
	if len(st) != 1 {
		t.Fatalf("Stages = %+v, want exactly the winning rung", st)
	}
	if st[0].Stage != StageILP || st[0].Err != nil {
		t.Fatalf("winning report = %+v, want {ilp-exact, nil err}", st[0])
	}
	if st[0].Duration <= 0 {
		t.Fatalf("winning rung duration = %v, want > 0", st[0].Duration)
	}
	if st[0].Duration > res.PlacementTime {
		t.Fatalf("rung duration %v exceeds total placement time %v", st[0].Duration, res.PlacementTime)
	}
}

// TestStageReportsOnFallback: a failed rung keeps its final error and
// wall time; the winner follows with nil Err.
func TestStageReportsOnFallback(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		StageHook: func(s Stage) error {
			if s == StageILP {
				return errors.New("injected ilp failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	st := res.Provenance.Stages
	if len(st) != 2 {
		t.Fatalf("Stages = %+v, want [failed ilp, winning refine]", st)
	}
	if st[0].Stage != StageILP || st[0].Err == nil {
		t.Fatalf("failed rung report = %+v, want ilp-exact with its error", st[0])
	}
	if st[0].Duration <= 0 {
		t.Fatalf("failed rung duration = %v, want > 0", st[0].Duration)
	}
	if st[1].Stage != StageRefine || st[1].Err != nil {
		t.Fatalf("winning rung report = %+v, want warm-start+refine with nil err", st[1])
	}
}

// TestStageReportsSkippedRungs: rungs jumped over by StartStage appear
// with ErrStageSkipped and zero duration, so callers can tell "never
// tried" from "tried and failed".
func TestStageReportsSkippedRungs(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 2 * time.Second,
		StartStage:   StageFallback,
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	st := res.Provenance.Stages
	if len(st) != 4 {
		t.Fatalf("Stages = %+v, want [skipped ilp, skipped refine, skipped pipeline-dp, winning fallback]", st)
	}
	for i, want := range []Stage{StageILP, StageRefine, StagePipelineDP} {
		if st[i].Stage != want {
			t.Errorf("Stages[%d].Stage = %v, want %v", i, st[i].Stage, want)
		}
		if !errors.Is(st[i].Err, ErrStageSkipped) {
			t.Errorf("Stages[%d].Err = %v, want ErrStageSkipped", i, st[i].Err)
		}
		if st[i].Duration != 0 {
			t.Errorf("Stages[%d].Duration = %v, want 0 (never ran)", i, st[i].Duration)
		}
	}
	if st[3].Stage != StageFallback || st[3].Err != nil {
		t.Fatalf("winning report = %+v, want {heuristic-fallback, nil}", st[3])
	}
}

// TestStageReportsRetriesAggregated: retried attempts fold into one
// per-rung report whose duration covers all attempts.
func TestStageReportsRetriesAggregated(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	fails := 0
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		StageHook: func(s Stage) error {
			if s == StageILP {
				fails++
				return errors.New("transient")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if fails != 2 {
		t.Fatalf("ilp rung attempted %d times, want 2 (1 + 1 retry)", fails)
	}
	st := res.Provenance.Stages
	if len(st) != 2 || st[0].Stage != StageILP {
		t.Fatalf("Stages = %+v, want one aggregated ilp report then the winner", st)
	}
	if len(res.Provenance.Attempts) != 2 {
		t.Fatalf("Attempts = %+v, want both failed attempts preserved", res.Provenance.Attempts)
	}
	var attemptSum time.Duration
	for _, a := range res.Provenance.Attempts {
		attemptSum += a.Elapsed
	}
	if st[0].Duration < attemptSum {
		t.Fatalf("aggregated rung duration %v below sum of attempts %v", st[0].Duration, attemptSum)
	}
}

// TestPlacementSpans: a recorder on the context observes the ladder —
// the place-level span, per-rung stage spans nested under it, and the
// pipeline counters.
func TestPlacementSpans(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	sink := obs.NewMemorySink()
	rec := obs.NewRecorder(sink)
	ctx := obs.Into(context.Background(), rec)
	if _, err := Place(ctx, g, sys, Options{ILPTimeLimit: 5 * time.Second, Verify: true}); err != nil {
		t.Fatalf("Place: %v", err)
	}
	spans := map[string][]obs.Record{}
	for _, r := range sink.Records() {
		if r.Kind == obs.KindSpan {
			spans[r.Name] = append(spans[r.Name], r)
		}
	}
	for _, name := range []string{"placement.place", "placement.stage", "placement.coarsen", "placement.ilp", "placement.seed", "placement.refine"} {
		if len(spans[name]) == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
	place := spans["placement.place"]
	if len(place) != 1 || place[0].Parent != 0 {
		t.Fatalf("placement.place spans = %+v, want one root span", place)
	}
	for _, st := range spans["placement.stage"] {
		if st.Parent != place[0].ID {
			t.Errorf("stage span parented to %d, want placement.place %d", st.Parent, place[0].ID)
		}
	}
	if rec.Counter("placement.sims") <= 0 {
		t.Errorf("placement.sims = %d, want > 0", rec.Counter("placement.sims"))
	}
	if rec.Counter("ilp.nodes") <= 0 {
		t.Errorf("ilp.nodes = %d, want > 0", rec.Counter("ilp.nodes"))
	}
	if rec.Counter("lp.pivots") <= 0 {
		t.Errorf("lp.pivots = %d, want > 0", rec.Counter("lp.pivots"))
	}
	if rec.Counter("engine.tasks") <= 0 {
		t.Errorf("engine.tasks = %d, want > 0", rec.Counter("engine.tasks"))
	}
}
