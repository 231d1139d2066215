package pesto

import (
	"context"
	"errors"
	"testing"
	"time"

	"pesto/internal/gen"
)

// TestFacadeErrorWrappingAudit proves the error chains the facade
// documents actually unwrap with errors.Is from outside the internal
// packages: ladder degradation, caller cancellation, deadline expiry,
// and verification rejections.
func TestFacadeErrorWrappingAudit(t *testing.T) {
	g, err := BuildModel("RNNLM-small")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)

	t.Run("degraded-provenance-wraps-ErrDegraded", func(t *testing.T) {
		// Fail every rung above the baseline fallback from outside so
		// it serves the plan.
		opts := PlaceOptions{
			ILPTimeLimit: 2 * time.Second,
			StageHook: func(s Stage) error {
				if s == StageILP || s == StageRefine || s == StagePipelineDP {
					return errors.New("injected rung failure")
				}
				return nil
			},
		}
		res, err := Place(context.Background(), g, sys, opts)
		if err != nil {
			t.Fatalf("Place with forced fallback: %v", err)
		}
		if res.Provenance.Stage != StageFallback {
			t.Fatalf("served by %v, want %v", res.Provenance.Stage, StageFallback)
		}
		perr := res.Provenance.Err()
		if perr == nil || !errors.Is(perr, ErrDegraded) {
			t.Fatalf("Provenance.Err() = %v, want wrap of ErrDegraded", perr)
		}
	})

	t.Run("undegraded-provenance-has-nil-err", func(t *testing.T) {
		res, err := Place(context.Background(), g, sys, PlaceOptions{ILPTimeLimit: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if perr := res.Provenance.Err(); perr != nil && errors.Is(perr, ErrDegraded) {
			t.Fatalf("primary-rung plan reports degradation: %v", perr)
		}
	})

	t.Run("cancellation-wraps-context-Canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Place(ctx, g, sys, PlaceOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Place on cancelled ctx: %v, want wrap of context.Canceled", err)
		}
		if _, err := Replan(ctx, g, sys, Plan{}, 1, PlaceOptions{}); err == nil {
			t.Fatal("Replan on cancelled ctx succeeded")
		}
	})

	t.Run("deadline-wraps-DeadlineExceeded", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, err := Place(ctx, g, sys, PlaceOptions{}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Place past deadline: %v, want wrap of context.DeadlineExceeded", err)
		}
	})

	t.Run("verification-rejections-wrap-ErrInvariant", func(t *testing.T) {
		// A GPU op forced onto the CPU is the canonical infeasible plan.
		bad := Plan{Device: make([]DeviceID, g.NumNodes())}
		if _, err := VerifyPlan(g, sys, bad); !errors.Is(err, ErrInvariant) {
			t.Fatalf("VerifyPlan on infeasible plan: %v, want wrap of ErrInvariant", err)
		}
	})

	t.Run("place-with-verify-option", func(t *testing.T) {
		res, err := Place(context.Background(), g, sys, PlaceOptions{ILPTimeLimit: 2 * time.Second, Verify: true, ScheduleFromILP: true})
		if err != nil {
			t.Fatalf("Place with Verify: %v", err)
		}
		// And the returned plan passes the same checker standalone.
		if _, err := VerifyPlan(g, sys, res.Plan); err != nil {
			t.Fatalf("verified plan fails standalone VerifyPlan: %v", err)
		}
	})

	t.Run("oom-wraps-ErrOOM", func(t *testing.T) {
		tiny := NewSystem(2, 1<<10)
		plan, err := SingleGPUPlan(g, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Simulate(g, tiny, plan); !errors.Is(err, ErrOOM) {
			t.Fatalf("Simulate on tiny memory: %v, want wrap of ErrOOM", err)
		}
	})
}

// TestFacadeGeneratorAndBound exercises the LP bound through the facade
// on a small seed range of generated graphs.
func TestFacadeGeneratorAndBound(t *testing.T) {
	sys := NewSystem(2, 16<<30)
	for seed := int64(0); seed < 8; seed++ {
		g, err := gen.Generate(gen.RandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		lb, err := MakespanLowerBound(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := HEFTPlan(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		step, err := VerifyPlan(g, sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		if step.Makespan < lb {
			t.Fatalf("seed %d: makespan %v undercuts bound %v", seed, step.Makespan, lb)
		}
	}
}
