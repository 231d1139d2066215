package placement

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/incr"
	"pesto/internal/sim"
)

// incrTestOpts keeps incremental tests fast and machine-independent.
func incrTestOpts() Options {
	return Options{
		ILPTimeLimit: 5 * time.Second,
		StartStage:   StageRefine,
		Seed:         1,
		Verify:       true,
	}
}

func genGraph(t *testing.T, nodes int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIncrementalWarmTrace(t *testing.T) {
	g := genGraph(t, 48, 7)
	sys := sim.NewSystem(2, gpuMem)
	opts := incrTestOpts()
	ctx := context.Background()

	cold, err := PlaceMultiGPU(ctx, g, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	prior := PriorPlacement{Graph: g, Plan: cold.Plan}

	edits, err := gen.EditTrace(g, gen.EditTraceConfig{Seed: 3, Steps: 12})
	if err != nil {
		t.Fatal(err)
	}
	cur := g
	warmCount := 0
	for step, e := range edits {
		next, m, err := incr.Apply(cur, e)
		if err != nil {
			t.Fatalf("step %d apply: %v", step, err)
		}
		prior.NodeMap = m
		res, err := Incremental(ctx, next, sys, prior, opts)
		if err != nil {
			t.Fatalf("step %d incremental: %v", step, err)
		}
		info := res.Provenance.Incremental
		if info == nil {
			t.Fatalf("step %d: no incremental provenance", step)
		}
		if !info.ColdFallback {
			warmCount++
			if res.Provenance.Stage != StageIncremental {
				t.Fatalf("step %d: warm stage = %v", step, res.Provenance.Stage)
			}
			if info.TotalGroups <= 0 || info.DirtyGroups < 0 || info.DirtyGroups > info.TotalGroups {
				t.Fatalf("step %d: group accounting %+v", step, info)
			}
			if info.ReuseFraction < 0 || info.ReuseFraction > 1 {
				t.Fatalf("step %d: reuse fraction %v", step, info.ReuseFraction)
			}
		}
		// Every incremental plan must be independently valid (package
		// test mode forces full verification inside the call too).
		if err := res.Plan.Validate(next, sys); err != nil {
			t.Fatalf("step %d: plan invalid: %v", step, err)
		}
		// Quality: within 5% of a from-scratch cold solve.
		coldStep, err := PlaceMultiGPU(ctx, next, sys, opts)
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		if float64(res.SimulatedMakespan) > 1.05*float64(coldStep.SimulatedMakespan) {
			t.Fatalf("step %d: warm makespan %v > 1.05x cold %v",
				step, res.SimulatedMakespan, coldStep.SimulatedMakespan)
		}
		cur = next
		prior = PriorPlacement{Graph: cur, Plan: res.Plan, ChainDepth: info.ChainDepth}
	}
	if warmCount == 0 {
		t.Fatal("no step took the warm path")
	}
}

func TestIncrementalByteDeterministicAcrossParallel(t *testing.T) {
	g := genGraph(t, 48, 9)
	sys := sim.NewSystem(2, gpuMem)
	opts := incrTestOpts()
	ctx := context.Background()
	cold, err := PlaceMultiGPU(ctx, g, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	edited, m, err := incr.Apply(g, incr.Edit{Kind: incr.KindReweight, Node: 10, CostNs: int64(3 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, par := range []int{1, 2, 8} {
		o := opts
		o.Parallel = par
		res, err := Incremental(ctx, edited, sys, PriorPlacement{Graph: g, Plan: cold.Plan, NodeMap: m}, o)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		b, err := json.Marshal(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b
		} else if !bytes.Equal(want, b) {
			t.Fatalf("parallel %d produced different plan bytes", par)
		}
	}
}

func TestIncrementalFallbacks(t *testing.T) {
	g := genGraph(t, 40, 2)
	sys := sim.NewSystem(2, gpuMem)
	opts := incrTestOpts()
	ctx := context.Background()
	cold, err := PlaceMultiGPU(ctx, g, sys, opts)
	if err != nil {
		t.Fatal(err)
	}

	// No prior graph → cold with reason.
	res, err := Incremental(ctx, g, sys, PriorPlacement{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info := res.Provenance.Incremental; info == nil || !info.ColdFallback || info.FallbackReason != "no-prior" {
		t.Fatalf("no-prior info = %+v", res.Provenance.Incremental)
	}

	// A prior plan that does not validate against its graph → cold.
	bad := cold.Plan.Clone()
	bad.Device = bad.Device[:len(bad.Device)-1]
	res, err = Incremental(ctx, g, sys, PriorPlacement{Graph: g, Plan: bad}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info := res.Provenance.Incremental; info == nil || info.FallbackReason != "invalid-prior" {
		t.Fatalf("invalid-prior info = %+v", res.Provenance.Incremental)
	}

	// Chain depth past the bound forces a cold refresh.
	res, err = Incremental(ctx, g, sys, PriorPlacement{Graph: g, Plan: cold.Plan, ChainDepth: incrMaxChain}, Options{
		ILPTimeLimit: 2 * time.Second, StartStage: StageRefine, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info := res.Provenance.Incremental; info == nil || info.FallbackReason != "chain-refresh" {
		t.Fatalf("chain-refresh info = %+v", res.Provenance.Incremental)
	}

	// A rewritten graph (whole thing dirty) trips the dirty threshold.
	rewritten := genGraph(t, 40, 99)
	res, err = Incremental(ctx, rewritten, sys, PriorPlacement{Graph: g, Plan: cold.Plan, NodeMap: nil}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info := res.Provenance.Incremental; info == nil || !info.ColdFallback {
		t.Fatalf("rewritten graph info = %+v", res.Provenance.Incremental)
	}
}

// TestIncrementalCleanGroupsKeepDevices pins the reuse contract: after
// a small local edit, operations in clean groups stay on their prior
// devices (the warm path froze them), up to the memory-repair escape
// hatch which this graph does not trigger.
func TestIncrementalCleanGroupsKeepDevices(t *testing.T) {
	g := genGraph(t, 64, 5)
	sys := sim.NewSystem(2, gpuMem)
	opts := incrTestOpts()
	ctx := context.Background()
	cold, err := PlaceMultiGPU(ctx, g, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Reweight one node: a one-op dirty region.
	edited, m, err := incr.Apply(g, incr.Edit{Kind: incr.KindReweight, Node: 20, CostNs: int64(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Incremental(ctx, edited, sys, PriorPlacement{Graph: g, Plan: cold.Plan, NodeMap: m}, opts)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Provenance.Incremental
	if info.ColdFallback {
		t.Fatalf("one-op edit fell back cold: %+v", info)
	}
	if info.DirtyGroups == 0 || info.DirtyGroups == info.TotalGroups {
		t.Fatalf("dirty accounting off: %+v", info)
	}
	if info.ReuseFraction < 0.5 {
		t.Fatalf("reuse fraction %v too low for a one-op edit", info.ReuseFraction)
	}
}
