package placement

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pesto/internal/sim"
)

func TestLadderHappyPathIsNotDegraded(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{ILPTimeLimit: 5 * time.Second})
	if res.Provenance.Stage != StageILP {
		t.Fatalf("stage = %v, want %v", res.Provenance.Stage, StageILP)
	}
	if res.Provenance.Degraded {
		t.Fatal("happy path marked degraded")
	}
	if err := res.Provenance.Err(); err != nil {
		t.Fatalf("Provenance.Err() = %v on the happy path", err)
	}
}

func TestLadderFallsBackOnStagePanic(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		StageHook: func(s Stage) error {
			if s == StageILP {
				panic("solver crash")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := res.Plan.Validate(g, sys); err != nil {
		t.Fatalf("fallback plan invalid: %v", err)
	}
	if res.Provenance.Stage != StageRefine {
		t.Fatalf("stage = %v, want %v", res.Provenance.Stage, StageRefine)
	}
	if !res.Provenance.Degraded {
		t.Fatal("fallback not marked degraded")
	}
	perr := res.Provenance.Err()
	if !errors.Is(perr, ErrDegraded) {
		t.Fatalf("Provenance.Err() = %v, want ErrDegraded", perr)
	}
	if len(res.Provenance.Attempts) == 0 || !errors.Is(res.Provenance.Attempts[0].Err, ErrStagePanic) {
		t.Fatalf("attempts = %+v, want a recovered ErrStagePanic", res.Provenance.Attempts)
	}
	if _, serr := sim.Run(g, sys, res.Plan); serr != nil {
		t.Fatalf("fallback plan does not simulate: %v", serr)
	}
}

func TestLadderFallsBackOnDeadlineExpiry(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	start := time.Now()
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		// stageRetries allows a retry, but deadline expiry must not get it.
		StageHook: func(s Stage) error {
			if s == StageILP {
				return fmt.Errorf("solver timed out: %w", context.DeadlineExceeded)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("ladder took %v, far past the budget", elapsed)
	}
	if res.Provenance.Stage != StageRefine || !res.Provenance.Degraded {
		t.Fatalf("provenance = %+v, want degraded %v", res.Provenance, StageRefine)
	}
	ilpAttempts := 0
	for _, a := range res.Provenance.Attempts {
		if a.Stage == StageILP {
			ilpAttempts++
		}
	}
	if ilpAttempts != 1 {
		t.Fatalf("deadline-expired stage retried %d times, want 1 attempt", ilpAttempts)
	}
	if err := res.Plan.Validate(g, sys); err != nil {
		t.Fatalf("fallback plan invalid: %v", err)
	}
}

func TestLadderRetriesTransientFailures(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	calls := 0
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		StageHook: func(s Stage) error {
			if s == StageILP {
				calls++
				if calls == 1 {
					return errors.New("transient failure")
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if calls != 2 {
		t.Fatalf("ILP stage attempted %d times, want 2 (original + 1 retry)", calls)
	}
	// The retry succeeded, so the plan comes from the first rung.
	if res.Provenance.Stage != StageILP || res.Provenance.Degraded {
		t.Fatalf("provenance = %+v, want non-degraded %v", res.Provenance, StageILP)
	}
	if len(res.Provenance.Attempts) != 1 {
		t.Fatalf("attempts = %+v, want the one transient failure", res.Provenance.Attempts)
	}
}

func TestLadderLastRungServesWhenEverythingElseDies(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		StageHook: func(s Stage) error {
			if s != StageFallback {
				panic("rung sabotaged")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if res.Provenance.Stage != StageFallback || !res.Provenance.Degraded {
		t.Fatalf("provenance = %+v, want degraded %v", res.Provenance, StageFallback)
	}
	if err := res.Plan.Validate(g, sys); err != nil {
		t.Fatalf("last-rung plan invalid: %v", err)
	}
	if _, serr := sim.Run(g, sys, res.Plan); serr != nil {
		t.Fatalf("last-rung plan does not simulate: %v", serr)
	}
}

func TestLadderEveryStageFailing(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	_, err := Place(context.Background(), g, sys, Options{
		ILPTimeLimit: 2 * time.Second,
		StageHook:    func(Stage) error { return errors.New("sabotaged") },
	})
	if !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("err = %v, want ErrNoPlacement", err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, should describe the degradation attempts", err)
	}
}

func TestLadderHonorsCancellation(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Place(ctx, g, sys, Options{ILPTimeLimit: 5 * time.Second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (cancellation must not be degraded around)", err)
	}
}

func TestMultiGPULadderFallsBack(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(4, gpuMem)
	res, err := PlaceMultiGPU(context.Background(), g, sys, Options{
		ILPTimeLimit: 5 * time.Second,
		StageHook: func(s Stage) error {
			if s == StageRefine || s == StagePipelineDP {
				panic(s.String() + " crash")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("PlaceMultiGPU: %v", err)
	}
	if res.Provenance.Stage != StageFallback || !res.Provenance.Degraded {
		t.Fatalf("provenance = %+v, want degraded %v", res.Provenance, StageFallback)
	}
	if err := res.Plan.Validate(g, sys); err != nil {
		t.Fatalf("fallback plan invalid: %v", err)
	}
}
