package verify_test

// The differential sweep: every engine in the repository — baselines,
// the Pesto placement ladder, the replanner, the discrete-event
// simulator and the concurrent runtime — is driven over a population of
// seeded random DAGs and held to the cross-engine oracles:
//
//   - every produced plan passes the independent invariant checker;
//   - no realized makespan undercuts the LP-relaxation lower bound;
//   - simulator and runtime agree on the makespan within tolerance;
//   - forcing the degradation ladder rung by rung never improves the
//     plan (exact ≤ refine ≤ fallback, up to a tie tolerance);
//   - replanning around a failed device yields a verified plan on the
//     survivors.
//
// The population size is PESTO_SWEEP (default 96 so plain `go test`
// stays fast); `make verify` runs the full 1000-instance sweep.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/engine"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/placement"
	"pesto/internal/runtime"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

const sweepGPUMem = int64(16) << 30

// sweepSize reads PESTO_SWEEP; the default keeps tier-1 runs fast.
func sweepSize(t *testing.T) int {
	if s := os.Getenv("PESTO_SWEEP"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad PESTO_SWEEP=%q", s)
		}
		return n
	}
	return 96
}

// placeOpts are the deliberately small budgets the sweep gives the
// exact pipeline: the node cap, not the wall clock, truncates the
// branch and bound, so results are machine-independent.
func placeOpts() placement.Options {
	return placement.Options{
		ILPTimeLimit: 5 * time.Second,
		ILPMaxNodes:  400,
		Verify:       true,
	}
}

// TestSweep is the harness entry point. Each seed is one independent
// instance; instances run in parallel through the engine pool and
// every violation reports its seed so it can be replayed alone.
func TestSweep(t *testing.T) {
	n := sweepSize(t)
	pool := engine.New(0)
	results, err := engine.Map(context.Background(), pool, n, func(ctx context.Context, i int) (string, error) {
		return "", sweepInstance(int64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, r := range results {
		if r.Err != nil {
			failed++
			if failed <= 10 {
				t.Errorf("seed %d: %v", i, r.Err)
			}
		}
	}
	if failed > 10 {
		t.Errorf("… and %d further failing seeds", failed-10)
	}
	t.Logf("sweep: %d instances, %d violations", n, failed)
}

// TestSweepReplay reruns a single seed reported by TestSweep:
//
//	PESTO_SWEEP_SEED=101 go test ./internal/verify/ -run TestSweepReplay -v
func TestSweepReplay(t *testing.T) {
	s := os.Getenv("PESTO_SWEEP_SEED")
	if s == "" {
		t.Skip("set PESTO_SWEEP_SEED to replay one sweep instance")
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad PESTO_SWEEP_SEED=%q", s)
	}
	if err := sweepInstance(seed); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// sweepInstance runs every oracle that applies to one seed.
func sweepInstance(seed int64) error {
	g, err := gen.Generate(gen.RandomConfig(seed))
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	sys := sim.NewSystem(2, sweepGPUMem)

	lb, err := verify.LowerBound(g, sys)
	if err != nil {
		return fmt.Errorf("lower bound: %w", err)
	}

	if err := baselineOracles(g, sys, lb); err != nil {
		return err
	}
	if seed%10 == 3 {
		if err := tightMemoryOracle(g, seed); err != nil {
			return err
		}
	}
	if seed%8 == 1 {
		if err := placementOracles(g, sys, lb, seed); err != nil {
			return err
		}
	}
	if seed%16 == 5 {
		if err := ladderMonotonicityOracle(g, sys, seed); err != nil {
			return err
		}
	}
	if seed%6 == 2 {
		if err := replanOracle(g, sys, lb); err != nil {
			return err
		}
	}
	if seed%12 == 7 {
		if err := multiGPUOracle(g, lb, seed); err != nil {
			return err
		}
	}
	return nil
}

// baselineOracles verifies every baseline plan and holds its makespan
// to the lower bound.
func baselineOracles(g *graph.Graph, sys sim.System, lb time.Duration) error {
	type mk struct {
		name string
		make func() (sim.Plan, error)
	}
	makers := []mk{
		{"single-gpu", func() (sim.Plan, error) { return baselines.SingleGPU(g, sys) }},
		{"heft", func() (sim.Plan, error) { return baselines.HEFT(g, sys) }},
		{"baechi", func() (sim.Plan, error) {
			p, _, _, err := baselines.BestBaechi(g, sys)
			return p, err
		}},
	}
	for _, m := range makers {
		plan, err := m.make()
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		res, err := verify.Check(g, sys, plan)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		if res.Makespan < lb {
			return fmt.Errorf("%s: makespan %v undercuts lower bound %v", m.name, res.Makespan, lb)
		}
	}
	return nil
}

// tightMemoryOracle shrinks GPU memory below the model's footprint and
// demands the checker classify the single-GPU plan as a memory
// violation — OOMs must be detected, and detected as OOMs.
func tightMemoryOracle(g *graph.Graph, seed int64) error {
	var total int64
	for _, nd := range g.Nodes() {
		if nd.Kind == graph.KindGPU {
			total += nd.Memory
		}
	}
	if total == 0 {
		return nil
	}
	tight := sim.NewSystem(2, total/2+1)
	plan, err := baselines.SingleGPU(g, tight)
	if err != nil {
		// SingleGPU itself may refuse; that is an acceptable detection
		// point as long as it reports OOM.
		if errors.Is(err, sim.ErrOOM) {
			return nil
		}
		return fmt.Errorf("tight-memory single-gpu: %w", err)
	}
	if _, err := verify.Check(g, tight, plan); !errors.Is(err, verify.ErrMemory) {
		return fmt.Errorf("tight-memory plan accepted or misclassified (seed %d): %v", seed, err)
	}
	return nil
}

// placementOracles runs the full Pesto ladder with verification on and
// cross-checks the simulator against the concurrent runtime when the
// plan carries an explicit order.
func placementOracles(g *graph.Graph, sys sim.System, lb time.Duration, seed int64) error {
	opts := placeOpts()
	opts.ScheduleFromILP = true
	opts.Seed = seed
	res, err := placement.Place(context.Background(), g, sys, opts)
	if err != nil {
		return fmt.Errorf("place: %w", err)
	}
	step, err := verify.Check(g, sys, res.Plan)
	if err != nil {
		return fmt.Errorf("place: %w", err)
	}
	if step.Makespan < lb {
		return fmt.Errorf("place: makespan %v undercuts lower bound %v", step.Makespan, lb)
	}
	if res.Plan.Order != nil {
		rres, err := runtime.Execute(g, sys, res.Plan, runtime.Options{})
		if err != nil {
			return fmt.Errorf("runtime: %w", err)
		}
		diff := float64(rres.Makespan - step.Makespan)
		if diff < 0 {
			diff = -diff
		}
		if diff/float64(step.Makespan) > 0.02 {
			return fmt.Errorf("runtime makespan %v vs simulator %v beyond 2%%", rres.Makespan, step.Makespan)
		}
		if rres.Makespan < lb {
			return fmt.Errorf("runtime: makespan %v undercuts lower bound %v", rres.Makespan, lb)
		}
	}
	return nil
}

// ladderMonotonicityOracle forces the degradation ladder onto each rung
// in turn and demands degradation never improves the plan: exact ≤
// refine ≤ fallback, up to a 5% tie tolerance (the rungs share
// heuristics, so near-ties are common).
func ladderMonotonicityOracle(g *graph.Graph, sys sim.System, seed int64) error {
	makespanAt := func(fail ...placement.Stage) (time.Duration, error) {
		opts := placeOpts()
		opts.Seed = seed
		if len(fail) > 0 {
			banned := map[placement.Stage]bool{}
			for _, s := range fail {
				banned[s] = true
			}
			opts.StageHook = func(s placement.Stage) error {
				if banned[s] {
					return errors.New("rung disabled by monotonicity oracle")
				}
				return nil
			}
		}
		res, err := placement.Place(context.Background(), g, sys, opts)
		if err != nil {
			return 0, err
		}
		step, err := verify.Check(g, sys, res.Plan)
		if err != nil {
			return 0, err
		}
		return step.Makespan, nil
	}
	refine, err := makespanAt(placement.StageILP)
	if err != nil {
		return fmt.Errorf("ladder refine: %w", err)
	}
	fallback, err := makespanAt(placement.StageILP, placement.StageRefine)
	if err != nil {
		return fmt.Errorf("ladder fallback: %w", err)
	}
	const tol = 1.05
	// refine ≤ fallback is structural — the refine rung seeds its
	// search with the very placements the fallback rung would return —
	// so it holds at any speed. exact ≤ refine is budget-sensitive:
	// the exact rung splits one wall-clock budget between branch and
	// bound and refinement, and the race detector's slowdown shifts
	// that split, which is not the property under test; skip it there.
	if float64(refine) > float64(fallback)*tol {
		return fmt.Errorf("ladder not monotone: refine %v > fallback %v", refine, fallback)
	}
	if !raceEnabled {
		exact, err := makespanAt()
		if err != nil {
			return fmt.Errorf("ladder exact: %w", err)
		}
		if float64(exact) > float64(refine)*tol {
			return fmt.Errorf("ladder not monotone: exact %v > refine %v", exact, refine)
		}
	}
	return nil
}

// replanOracle fails a device under a verified plan and demands the
// recovered plan verify on the survivor system with nothing left on the
// failed device.
func replanOracle(g *graph.Graph, sys sim.System, lb time.Duration) error {
	plan, err := baselines.HEFT(g, sys)
	if err != nil {
		return fmt.Errorf("replan seed plan: %w", err)
	}
	const failed = sim.DeviceID(1)
	opts := placeOpts()
	out, err := placement.Replan(context.Background(), g, sys, plan, failed, opts)
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	for id, d := range out.Plan.Device {
		if d == failed {
			return fmt.Errorf("replan left op %d on failed device", id)
		}
	}
	step, err := verify.Check(g, out.Survivors, out.Plan)
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	// The two-GPU bound still applies to the degraded one-GPU system.
	if step.Makespan < lb {
		return fmt.Errorf("replan: makespan %v undercuts lower bound %v", step.Makespan, lb)
	}
	return nil
}

// multiGPUOracle exercises the k-GPU pipeline and a hierarchical
// multi-host topology.
func multiGPUOracle(g *graph.Graph, lb2 time.Duration, seed int64) error {
	for name, sys := range map[string]sim.System{
		"4-gpu":     sim.NewSystem(4, sweepGPUMem),
		"multihost": sim.NewMultiHostSystem(2, 2, sweepGPUMem),
	} {
		opts := placeOpts()
		opts.Seed = seed
		res, err := placement.PlaceMultiGPU(context.Background(), g, sys, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		step, err := verify.Check(g, sys, res.Plan)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// The k-GPU system has its own (weaker) bound; recompute it
		// rather than reusing the two-GPU one.
		lb, err := verify.LowerBound(g, sys)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if step.Makespan < lb {
			return fmt.Errorf("%s: makespan %v undercuts lower bound %v", name, step.Makespan, lb)
		}
		_ = lb2
	}
	return nil
}
