package pesto

import (
	"context"
	"errors"
	"testing"
	"time"

	"pesto/internal/comm"
	"pesto/internal/graph"
	"pesto/internal/pipeline"
	"pesto/internal/profile"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := BuildModel("RNNLM-small")
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	sys := NewSystem(2, 16<<30)
	res, err := Place(context.Background(), g, sys, PlaceOptions{ILPTimeLimit: 2 * time.Second, ScheduleFromILP: true})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	step, err := Simulate(g, sys, res.Plan)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if step.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	// The runtime executor agrees with the simulator to a few percent.
	mk, err := Execute(g, sys, res.Plan, 0, 0)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	diff := float64(mk-step.Makespan) / float64(step.Makespan)
	if diff < -0.1 || diff > 0.1 {
		t.Fatalf("runtime %v vs simulator %v", mk, step.Makespan)
	}
}

func TestBaselinesThroughFacade(t *testing.T) {
	g, err := BuildModel("NASNet-small")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	if _, err := ExpertPlan(g, sys, true); err != nil {
		t.Errorf("ExpertPlan: %v", err)
	}
	if _, name, mk, err := BaechiPlan(g, sys); err != nil || name == "" || mk <= 0 {
		t.Errorf("BaechiPlan: %v %v %v", name, mk, err)
	}
	if _, err := SingleGPUPlan(g, sys); err != nil {
		t.Errorf("SingleGPUPlan: %v", err)
	}
}

func TestProfilingThroughFacade(t *testing.T) {
	g, err := BuildModel("Transformer-small")
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := ProfileCompute(g, 10, 1)
	if err != nil {
		t.Fatalf("ProfileCompute: %v", err)
	}
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	sys := NewSystem(2, 16<<30)
	prof, err := profile.Communication(sys, comm.GPUToGPU, 1)
	if err != nil {
		t.Fatalf("profile.Communication: %v", err)
	}
	if prof.Model.R2 < 0.9 {
		t.Errorf("R² = %g", prof.Model.R2)
	}
}

func TestErrorsExported(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(Node{Kind: KindGPU, Cost: time.Microsecond, Memory: 20 << 30})
	b := g.AddNode(Node{Kind: KindGPU, Cost: time.Microsecond, Memory: 20 << 30})
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	_, err := Simulate(g, sys, Plan{Device: []DeviceID{1, 2}})
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
	if _, err := Place(context.Background(), g, NewSystem(1, 16<<30), PlaceOptions{}); !errors.Is(err, ErrUnsupportedSystem) {
		t.Fatalf("err = %v, want ErrUnsupportedSystem", err)
	}
}

func TestModelVariantsComplete(t *testing.T) {
	vs := ModelVariants()
	if len(vs) != 11 {
		t.Fatalf("variants = %d, want the paper's 11", len(vs))
	}
	for _, v := range vs {
		if _, err := BuildModel(v.Name); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
	if _, err := BuildModel("unknown"); err == nil {
		t.Error("unknown variant should fail")
	}
}

// TestPipelineThroughFacade exercises the microbatched pipeline regime
// end to end via the public surface: plan, inspect provenance,
// re-materialize the artifact, re-verify it.
func TestPipelineThroughFacade(t *testing.T) {
	g, err := BuildModel("RNNLM-small")
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	sys := NewSystem(2, 16<<30)
	popts, err := ParsePipelineSpec("mb=4,sched=gpipe")
	if err != nil {
		t.Fatalf("ParsePipelineSpec: %v", err)
	}
	opts := PlaceOptions{ILPTimeLimit: 2 * time.Second, Pipeline: popts}
	res, err := Place(context.Background(), g, sys, opts)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if res.Provenance.Stage != StagePipelineDP || res.Provenance.Pipeline == nil {
		t.Fatalf("provenance = %+v, want pipeline-dp with info", res.Provenance)
	}
	info := res.Provenance.Pipeline
	if info.Microbatches != 4 || info.Schedule != "gpipe" {
		t.Fatalf("info = %+v", info)
	}
	art, err := BuildPipelinePlan(g, sys, opts)
	if err != nil {
		t.Fatalf("BuildPipelinePlan: %v", err)
	}
	step, err := VerifyPipelinePlan(art, sys)
	if err != nil {
		t.Fatalf("VerifyPipelinePlan: %v", err)
	}
	if step.Makespan != info.Makespan {
		t.Fatalf("verified step %v != provenance %v", step.Makespan, info.Makespan)
	}
	// A corrupted artifact is rejected with the exported sentinel.
	art.Meta.Stages = 0
	if _, err := VerifyPipelinePlan(art, sys); !errors.Is(err, ErrPipelineInvariant) || !errors.Is(err, ErrInvariant) {
		t.Fatalf("corrupt artifact error %v must wrap ErrPipelineInvariant and ErrInvariant", err)
	}
	if _, err := ParsePipelineSpec("mb=oops"); !errors.Is(err, ErrBadPipelineSpec) {
		t.Fatalf("bad spec error %v must wrap ErrBadPipelineSpec", err)
	}
	if k, err := pipeline.ParseSchedule("1f1b"); err != nil || k != PipelineSchedule1F1B {
		t.Fatalf("pipeline.ParseSchedule = %v, %v", k, err)
	}
}
