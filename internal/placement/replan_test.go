package placement

import (
	"context"
	"errors"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/obs"
	"pesto/internal/sim"
)

func TestReplanMigratesEverythingOffFailedDevice(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{ILPTimeLimit: 5 * time.Second, ScheduleFromILP: true})

	const failed = sim.DeviceID(2)
	onFailed := 0
	for _, d := range res.Plan.Device {
		if d == failed {
			onFailed++
		}
	}
	rr, err := Replan(context.Background(), g, sys, res.Plan, failed, Options{ILPTimeLimit: 2 * time.Second})
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if err := rr.Plan.Validate(g, rr.Survivors); err != nil {
		t.Fatalf("replanned plan invalid: %v", err)
	}
	if err := rr.Plan.CheckMemory(g, rr.Survivors); err != nil {
		t.Fatalf("replanned plan violates memory: %v", err)
	}
	for id, d := range rr.Plan.Device {
		if d == failed {
			t.Fatalf("op %d still on failed device", id)
		}
	}
	if rr.Migrated != onFailed {
		t.Fatalf("Migrated = %d, want %d (ops on the failed device)", rr.Migrated, onFailed)
	}
	// The simulator must complete a step on the survivor system.
	step, err := sim.Run(g, rr.Survivors, rr.Plan)
	if err != nil {
		t.Fatalf("degraded step does not simulate: %v", err)
	}
	if step.Makespan != rr.Makespan {
		t.Fatalf("reported makespan %v != simulated %v", rr.Makespan, step.Makespan)
	}
	if rr.PrevMakespan <= 0 {
		t.Fatalf("PrevMakespan = %v, want the healthy step time", rr.PrevMakespan)
	}
	if rr.RecoveryDelta != rr.Makespan-rr.PrevMakespan {
		t.Fatalf("RecoveryDelta = %v, want %v", rr.RecoveryDelta, rr.Makespan-rr.PrevMakespan)
	}
	// A strictly scheduled source plan recovers to a strictly scheduled
	// plan.
	if res.Plan.Order != nil && rr.Plan.Order == nil {
		t.Fatal("replanned plan dropped the explicit schedule")
	}
	if rr.Provenance.Stage != StageReplan || !rr.Provenance.Degraded {
		t.Fatalf("provenance = %+v, want degraded %v", rr.Provenance, StageReplan)
	}
	if !errors.Is(rr.Provenance.Err(), ErrDegraded) {
		t.Fatalf("Provenance.Err() = %v, want ErrDegraded", rr.Provenance.Err())
	}
}

func TestReplanRejectsNonGPUAndUnknownDevices(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{ILPTimeLimit: 5 * time.Second})
	if _, err := Replan(context.Background(), g, sys, res.Plan, 0, Options{}); !errors.Is(err, ErrUnsupportedSystem) {
		t.Fatalf("CPU failure: err = %v, want ErrUnsupportedSystem", err)
	}
	if _, err := Replan(context.Background(), g, sys, res.Plan, 99, Options{}); !errors.Is(err, sim.ErrBadPlacement) {
		t.Fatalf("unknown device: err = %v, want ErrBadPlacement", err)
	}
}

func TestReplanNeedsASurvivingGPU(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(gpuNode("a", 10*time.Microsecond))
	b := g.AddNode(gpuNode("b", 10*time.Microsecond))
	mustEdge(t, g, a, b, 1024)
	sys := sim.NewSystem(1, gpuMem)
	plan := sim.Plan{Device: []sim.DeviceID{1, 1}}
	if _, err := Replan(context.Background(), g, sys, plan, 1, Options{}); !errors.Is(err, ErrUnsupportedSystem) {
		t.Fatalf("err = %v, want ErrUnsupportedSystem", err)
	}
}

func TestReplanRejectsMigrationWithoutMemory(t *testing.T) {
	// Two GPUs of 5 MB; 2 MB ops split 2/2 (4 MB per device). Failing
	// one device would need 8 MB on the survivor: the memory constraint
	// must fail the replan with ErrOOM, not be degraded around.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Name: "op", Kind: graph.KindGPU, Cost: 10 * time.Microsecond, Memory: 2 << 20, Layer: -1})
	}
	sys := sim.NewSystem(2, 5<<20)
	plan := sim.Plan{Device: []sim.DeviceID{1, 1, 2, 2}}
	if err := plan.CheckMemory(g, sys); err != nil {
		t.Fatalf("source plan should fit: %v", err)
	}
	_, err := Replan(context.Background(), g, sys, plan, 2, Options{ILPTimeLimit: time.Second})
	if !errors.Is(err, sim.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestReplanMultiHostMemoryAware(t *testing.T) {
	// 2 hosts × 2 GPUs of 5 MB. Ops: four 2 MB ops, one per GPU. The
	// survivors each have 3 MB free, so the single evicted op fits —
	// and must land somewhere without violating any survivor's limit.
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Name: "op", Kind: graph.KindGPU, Cost: 10 * time.Microsecond, Memory: 2 << 20, Layer: -1})
	}
	sys := sim.NewMultiHostSystem(2, 2, 5<<20)
	plan := sim.Plan{Device: []sim.DeviceID{1, 2, 3, 4}}
	rr, err := Replan(context.Background(), g, sys, plan, 4, Options{ILPTimeLimit: time.Second})
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if err := rr.Plan.CheckMemory(g, rr.Survivors); err != nil {
		t.Fatalf("multi-host replan violates memory: %v", err)
	}
	for id, d := range rr.Plan.Device {
		if d == 4 {
			t.Fatalf("op %d still on failed device 4", id)
		}
	}
	if _, err := sim.Run(g, rr.Survivors, rr.Plan); err != nil {
		t.Fatalf("multi-host degraded step: %v", err)
	}

	// Saturate the survivors (two ops each on GPUs 1-3, one pair on 4 —
	// 4 MB used of 5 MB everywhere): now the eviction cannot fit.
	g2 := graph.New(8)
	for i := 0; i < 8; i++ {
		g2.AddNode(graph.Node{Name: "op", Kind: graph.KindGPU, Cost: 10 * time.Microsecond, Memory: 2 << 20, Layer: -1})
	}
	full := sim.Plan{Device: []sim.DeviceID{1, 1, 2, 2, 3, 3, 4, 4}}
	if err := full.CheckMemory(g2, sys); err != nil {
		t.Fatalf("saturated plan should fit: %v", err)
	}
	if _, err := Replan(context.Background(), g2, sys, full, 4, Options{ILPTimeLimit: time.Second}); !errors.Is(err, sim.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM on saturated survivors", err)
	}
}

func TestReplanKeepsColocGroupsTogether(t *testing.T) {
	g := graph.New(4)
	g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Cost: 10 * time.Microsecond, Memory: 1 << 20, Coloc: "grp", Layer: -1})
	g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Cost: 10 * time.Microsecond, Memory: 1 << 20, Coloc: "grp", Layer: -1})
	g.AddNode(gpuNode("c", 10*time.Microsecond))
	g.AddNode(gpuNode("d", 10*time.Microsecond))
	sys := sim.NewSystem(3, gpuMem)
	plan := sim.Plan{Device: []sim.DeviceID{3, 3, 1, 2}}
	rr, err := Replan(context.Background(), g, sys, plan, 3, Options{ILPTimeLimit: time.Second})
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if rr.Plan.Device[0] != rr.Plan.Device[1] {
		t.Fatalf("coloc group split across %d and %d", rr.Plan.Device[0], rr.Plan.Device[1])
	}
	if err := rr.Plan.Validate(g, rr.Survivors); err != nil {
		t.Fatalf("replanned plan invalid: %v", err)
	}
}

// TestReplanCountsSearchWork holds Replan and ReplanArrival to the
// search telemetry every other entry point reports: a rebalance that
// seeds and refines must count its simulations and refine rounds.
func TestReplanCountsSearchWork(t *testing.T) {
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 1, Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(3, gpuMem)
	opts := Options{ILPTimeLimit: 10 * time.Second, StartStage: StageRefine}
	res, err := PlaceMultiGPU(context.Background(), g, sys, opts)
	if err != nil {
		t.Fatalf("PlaceMultiGPU: %v", err)
	}
	const lost = sim.DeviceID(3)
	counted := func(name string, f func(ctx context.Context) (*ReplanResult, error)) *ReplanResult {
		t.Helper()
		rec := obs.NewRecorder()
		rr, err := f(obs.Into(context.Background(), rec))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range []string{"placement.sims", "placement.refine.rounds"} {
			if rec.Counter(c) <= 0 {
				t.Errorf("%s: %s = %d, want > 0", name, c, rec.Counter(c))
			}
		}
		return rr
	}
	rr := counted("Replan", func(ctx context.Context) (*ReplanResult, error) {
		return Replan(ctx, g, sys, res.Plan, lost, opts)
	})
	counted("ReplanArrival", func(ctx context.Context) (*ReplanResult, error) {
		return ReplanArrival(ctx, g, sys, rr.Plan, lost, opts)
	})
}
