package pipeline

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"pesto/internal/comm"
	"pesto/internal/gen"
	"pesto/internal/sim"
)

// zeroCostModel builds a communication model whose transfers are free
// on every link type — the regime where the closed-form pipeline
// formulas hold exactly.
func zeroCostModel() *comm.CostModel {
	return comm.NewCostModel().Scaled(math.Inf(1))
}

// TestBuildClosedFormForwardOnly pins the textbook pipeline formulas on
// a uniform zero-communication pipeline: S stages of per-microbatch
// time t run M microbatches in (M+S-1)*t, leaving a bubble fraction of
// (S-1)/(M+S-1).
func TestBuildClosedFormForwardOnly(t *testing.T) {
	const unit = time.Millisecond
	for _, c := range []struct{ S, M int }{{2, 2}, {3, 4}, {4, 8}, {1, 4}} {
		g := chainGraph(c.S, time.Duration(c.M)*unit, 0) // per-mb cost = unit
		sys := zeroCommSystem(c.S)
		part, err := PartitionDP(g, sys, sys.GPUs(), -1)
		if err != nil {
			t.Fatalf("S=%d: PartitionDP: %v", c.S, err)
		}
		plan, err := Build(part, sys, c.M, -1, ScheduleGPipe)
		if err != nil {
			t.Fatalf("S=%d M=%d: Build: %v", c.S, c.M, err)
		}
		sc, _, err := ScorePlan(plan, sys)
		if err != nil {
			t.Fatalf("S=%d M=%d: ScorePlan: %v", c.S, c.M, err)
		}
		wantMk := time.Duration(c.M+c.S-1) * unit
		if sc.Makespan != wantMk {
			t.Errorf("S=%d M=%d: makespan = %v, want (M+S-1)*t = %v", c.S, c.M, sc.Makespan, wantMk)
		}
		wantBubble := float64(c.S-1) / float64(c.M+c.S-1)
		if diff := sc.Bubble - wantBubble; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("S=%d M=%d: bubble = %g, want (S-1)/(M+S-1) = %g", c.S, c.M, sc.Bubble, wantBubble)
		}
	}
}

// TestBuildConservesWork: per-microbatch shares sum back to the
// full-batch compute and activation volumes exactly.
func TestBuildConservesWork(t *testing.T) {
	g, err := gen.Generate(gen.PipelineConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(3, 16<<30)
	part, err := PartitionDP(g, sys, sys.GPUs(), 2)
	if err != nil {
		t.Fatalf("PartitionDP: %v", err)
	}
	const M = 5
	plan, err := Build(part, sys, M, 2, Schedule1F1B)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	fwd := make([]time.Duration, len(part.Stages))
	for _, n := range plan.Graph.Nodes() {
		s := plan.Meta.StageOf[n.ID]
		if s < 0 || plan.Meta.Backward[n.ID] {
			continue
		}
		fwd[s] += n.Cost
	}
	for s, st := range part.Stages {
		if fwd[s] != st.Compute {
			t.Errorf("stage %d: microbatch forwards sum to %v, partition says %v", s, fwd[s], st.Compute)
		}
	}
	if verr := plan.Meta.Validate(plan.Graph.NumNodes()); verr != nil {
		t.Errorf("meta: %v", verr)
	}
	if verr := plan.Sim.Validate(plan.Graph, sys); verr != nil {
		t.Errorf("sim plan: %v", verr)
	}
}

// TestSearchBeatsFIFO is the headline acceptance criterion: on the
// pipeline-friendly model zoo with M >= 4 microbatches, the best
// (partition, schedule) pair finishes the step faster than the
// single-shot FIFO baseline over the same partition.
func TestSearchBeatsFIFO(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, err := gen.Generate(gen.PipelineConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(4, 16<<30)
		out, err := Search(context.Background(), g, sys, Options{Microbatches: 4})
		if err != nil {
			t.Fatalf("seed %d: Search: %v", seed, err)
		}
		if out.FIFOStep <= 0 {
			t.Fatalf("seed %d: no FIFO baseline recorded", seed)
		}
		if out.Score.Makespan >= out.FIFOStep {
			t.Errorf("seed %d: pipeline step %v does not beat single-shot %v (stages=%d sched=%v)",
				seed, out.Score.Makespan, out.FIFOStep, len(out.Plan.Partition.Stages), out.Plan.Schedule)
		}
	}
}

// TestSearchDeterministic: equal inputs give byte-identical outcomes —
// same winner, same score, same candidate list.
func TestSearchDeterministic(t *testing.T) {
	g, err := gen.Generate(gen.PipelineConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(4, 16<<30)
	opts := Options{Microbatches: 6}
	a, err := Search(context.Background(), g, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), g, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Info(), b.Info()) {
		t.Errorf("outcomes differ:\n%+v\n%+v", a.Info(), b.Info())
	}
	if !reflect.DeepEqual(a.Candidates, b.Candidates) {
		t.Errorf("candidate lists differ:\n%+v\n%+v", a.Candidates, b.Candidates)
	}
	if !reflect.DeepEqual(a.Plan.Sim, b.Plan.Sim) {
		t.Error("winning simulator plans differ")
	}
}

// TestSearchForwardOnlySingleDiscipline: forward-only pipelines score
// one discipline (they all coincide without backwards).
func TestSearchForwardOnly(t *testing.T) {
	g, err := gen.Generate(gen.PipelineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(2, 16<<30)
	out, err := Search(context.Background(), g, sys, Options{Microbatches: 4, BackwardRatio: -1})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	for _, n := range out.Plan.Graph.Nodes() {
		if out.Plan.Meta.Backward[n.ID] {
			t.Fatal("forward-only pipeline built a backward task")
		}
	}
	for _, c := range out.Candidates {
		if c.Schedule == Schedule1F1B {
			t.Fatal("forward-only search scored 1F1B separately")
		}
	}
}

// TestSearchRespectsExplicitSchedule: a pinned discipline is the only
// one scored and the only one that can win.
func TestSearchRespectsExplicitSchedule(t *testing.T) {
	g, err := gen.Generate(gen.PipelineConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(3, 16<<30)
	out, err := Search(context.Background(), g, sys, Options{Microbatches: 4, Schedule: Schedule1F1B})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if out.Plan.Schedule != Schedule1F1B {
		t.Fatalf("winner discipline = %v, want 1f1b", out.Plan.Schedule)
	}
	for _, c := range out.Candidates {
		if c.Schedule == ScheduleGPipe && c.Makespan > 0 {
			t.Fatal("pinned-1f1b search scored a gpipe candidate")
		}
	}
}
