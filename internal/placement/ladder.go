package placement

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/engine"
	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/sim"
)

// Errors reported by the degradation ladder.
var (
	// ErrDegraded marks plans produced by a fallback rung of the
	// ladder rather than the exact pipeline. It is never returned as
	// Place's error when a fallback succeeds — the plan is valid — but
	// Result.Provenance.Err() wraps it so callers can errors.Is-match
	// degraded outcomes. Replan results wrap it too: a post-failure
	// plan is by definition degraded.
	ErrDegraded = errors.New("degraded placement")
	// ErrStagePanic marks a ladder stage that panicked; the panic is
	// recovered into an error and the ladder moves on to the next rung.
	ErrStagePanic = errors.New("placement stage panicked")
	// ErrStageSkipped marks a ladder rung that never ran because
	// Options.StartStage entered the ladder below it. StageReport.Err
	// wraps it so per-stage reports distinguish "skipped by budget"
	// from "tried and failed".
	ErrStageSkipped = errors.New("placement stage skipped")
)

// Stage names one rung of the degradation ladder.
type Stage int

const (
	// StageILP is the exact pipeline: coarsen, branch-and-bound ILP,
	// warm starts and refinement (placeILP).
	StageILP Stage = iota + 1
	// StageRefine is the ILP-free pipeline: warm-start seeds, greedy
	// list-scheduling placements and hill-climbing refinement
	// (placeRefine) — also the primary pipeline for k > 2 GPUs.
	StageRefine
	// StagePipelineDP is the contiguous-split rung: the Tarnawski-style
	// dynamic program over (split point, device count) cuts the coarse
	// graph's topological order into per-device stages minimizing the
	// bottleneck stage time, then the best of that split and the
	// baseline placements wins (placePipelineDP). Much cheaper than
	// refinement, stronger than the bare baselines on deep models —
	// and, with Options.Pipeline set, the rung that plans microbatched
	// pipeline execution (see internal/pipeline).
	StagePipelineDP
	// StageFallback is the last rung: the best of the Baechi
	// heuristics, HEFT and single-GPU, simulated and picked by
	// realized makespan (placeFallback). Near-instant.
	StageFallback
	// StageReplan marks plans produced by Replan after a device
	// failure.
	StageReplan
	// StageIncremental marks plans produced by Incremental's warm
	// re-place path: a prior plan reused as a partial assignment with
	// only the dirty region re-solved.
	StageIncremental
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageILP:
		return "ilp-exact"
	case StageRefine:
		return "warm-start+refine"
	case StagePipelineDP:
		return "pipeline-dp"
	case StageFallback:
		return "heuristic-fallback"
	case StageReplan:
		return "replan"
	case StageIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// StageAttempt records one failed attempt at one rung.
type StageAttempt struct {
	Stage   Stage
	Attempt int // 1-based attempt number within the stage
	Err     error
	Elapsed time.Duration
}

// StageReport summarizes one ladder rung's fate within a single Place
// call: the wall time the rung consumed across all of its attempts and
// the error that ended it. Err is nil for the rung that produced the
// plan, wraps ErrStageSkipped for rungs Options.StartStage jumped
// over (Duration zero), and otherwise carries the rung's final
// failure.
type StageReport struct {
	Stage    Stage
	Duration time.Duration
	Err      error
}

// Provenance records how a plan was obtained: the rung that produced
// it and every failed attempt before it. Callers use it to tell an
// optimal plan from a degraded one.
type Provenance struct {
	// Stage is the rung that produced the returned plan.
	Stage Stage
	// Degraded is true when a fallback rung (not the ladder's first)
	// produced the plan.
	Degraded bool
	// Attempts lists the failed attempts, in order.
	Attempts []StageAttempt
	// Stages reports every rung the ladder considered, in ladder
	// order — skipped, failed and winning alike — with per-rung wall
	// time. It answers "where did the milliseconds go" where Attempts
	// answers "what went wrong".
	Stages []StageReport
	// Incremental records the warm re-place accounting when the plan
	// came through Incremental (on both its warm and cold-fallback
	// paths); nil for ordinary cold solves.
	Incremental *IncrementalInfo
	// Pipeline records the winning (partition, schedule) pair — stage
	// layout, microbatch schedule, simulated step time, bubble
	// fraction, per-stage utilization and peak memory — when the plan
	// came through the Options.Pipeline planning regime; nil
	// otherwise.
	Pipeline *pipeline.Info
}

// Err returns nil for a non-degraded result, and otherwise an error
// wrapping ErrDegraded that describes the fallback and what the
// earlier rungs died of — errors.Is(p.Err(), ErrDegraded) is the
// degradation check.
func (p Provenance) Err() error {
	if !p.Degraded {
		return nil
	}
	var b strings.Builder
	for i, a := range p.Attempts {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%v attempt %d: %v", a.Stage, a.Attempt, a.Err)
	}
	return fmt.Errorf("%w: served by %v after [%s]", ErrDegraded, p.Stage, b.String())
}

// stageBackoff is the pause between retries of a failed ladder stage.
const stageBackoff = 5 * time.Millisecond

// stageFunc is one rung's implementation.
type stageFunc func(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error)

// stageDef pairs a rung with its implementation.
type stageDef struct {
	stage Stage
	run   stageFunc
}

// Place runs the Pesto placement-and-scheduling pipeline as a
// graceful-degradation ladder:
//
//  1. the exact pipeline (coarsen → ILP branch and bound → warm starts
//     → refinement),
//  2. the ILP-free warm-start + refinement pipeline,
//  3. the contiguous-split DP,
//  4. the best baseline heuristic (Baechi family, HEFT, single-GPU).
//
// Each rung runs under its own deadline with bounded retry/backoff
// (stageRetries, stageBackoff apart), and panics inside a rung are
// recovered into errors — a crashing or stalling solver degrades the
// answer instead of taking the caller down. The rung that produced the
// returned plan is recorded in Result.Provenance; use
// Provenance.Err() (wrapping ErrDegraded) to detect fallbacks.
// Cancelling ctx aborts the whole ladder and returns the context
// error: caller cancellation is never degraded around.
//
// Options.DisableFallback restores the bare exact pipeline.
func Place(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	if n := len(sys.GPUs()); n != 2 {
		return nil, fmt.Errorf("pesto: system has %d usable GPUs: %w", n, ErrUnsupportedSystem)
	}
	return placeLadder(ctx, g, sys, opts)
}

// placeLadder is the body of Place and PlaceMultiGPU. The rungs follow
// the GPU count: the exact rung covers two GPUs only, so k > 2 starts
// at refinement.
func placeLadder(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	ctx, span := obs.Start(ctx, "placement.place",
		obs.Int("graph-nodes", int64(g.NumNodes())), obs.Int("gpus", int64(len(sys.GPUs()))))
	rungs := []stageDef{
		{StageILP, placeILP},
		{StageRefine, placeRefine},
		{StagePipelineDP, placePipelineDP},
		{StageFallback, placeFallback},
	}
	if len(sys.GPUs()) != 2 {
		rungs = rungs[1:]
	}
	var res *Result
	var err error
	switch {
	case opts.Pipeline.Enabled():
		// The microbatched pipeline regime is a different planning
		// problem (minimize step time over M microbatches, not
		// single-shot makespan); it runs directly, not as a ladder rung,
		// so its provenance — including the winning (partition,
		// schedule) pair — survives intact.
		res, err = placePipeline(ctx, g, sys, opts)
	case opts.DisableFallback:
		res, err = rungs[0].run(ctx, g, sys, opts)
	default:
		kept, skipped := stagesFrom(rungs, opts.StartStage)
		res, err = runLadder(ctx, g, sys, opts, kept, skipped)
	}
	if err != nil {
		span.End(obs.String("outcome", "error"), obs.String("error", err.Error()))
		return nil, err
	}
	if verr := verifyResult(g, sys, res.Plan, opts); verr != nil {
		span.End(obs.String("outcome", "verification-failed"), obs.String("error", verr.Error()))
		return nil, verr
	}
	span.End(obs.String("outcome", "ok"),
		obs.String("stage", res.Provenance.Stage.String()),
		obs.Dur("makespan", res.SimulatedMakespan))
	return res, nil
}

// runLadder walks the stages in order until one returns a plan. Every
// attempt is panic-recovered; each gets the remaining overall budget
// (floored so the cheap fallback rungs always get a chance) and a hard
// backstop deadline at twice its nominal budget, which is what cuts a
// stalled solver loose.
func runLadder(ctx context.Context, g *graph.Graph, sys sim.System, opts Options, stages []stageDef, skipped []Stage) (*Result, error) {
	start := time.Now()
	total := opts.ILPTimeLimit
	rec := obs.From(ctx)
	var attempts []StageAttempt
	reports := make([]StageReport, 0, len(skipped)+len(stages))
	for _, s := range skipped {
		reports = append(reports, StageReport{
			Stage: s,
			Err:   fmt.Errorf("ladder entered at %v: %w", stages[0].stage, ErrStageSkipped),
		})
	}
	for si, st := range stages {
		budget := total - time.Since(start)
		if budget < 50*time.Millisecond {
			budget = 50 * time.Millisecond
		}
		stageStart := time.Now()
		var lastErr error
		for attempt := 1; attempt <= 1+stageRetries; attempt++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pesto: cancelled during %v: %w", st.stage, err)
			}
			attemptStart := time.Now()
			actx, sp := obs.Start(ctx, "placement.stage",
				obs.String("stage", st.stage.String()),
				obs.Int("attempt", int64(attempt)),
				obs.Dur("budget", budget))
			res, err := runStageAttempt(actx, g, sys, opts, st, budget)
			if err == nil {
				sp.End(obs.String("outcome", "ok"))
				reports = append(reports, StageReport{Stage: st.stage, Duration: time.Since(stageStart)})
				res.Provenance = Provenance{Stage: st.stage, Degraded: si > 0, Attempts: attempts, Stages: reports}
				res.PlacementTime = time.Since(start)
				return res, nil
			}
			sp.End(obs.String("outcome", "failed"), obs.String("error", err.Error()))
			rec.Add("placement.stage.failures", 1)
			lastErr = err
			attempts = append(attempts, StageAttempt{
				Stage: st.stage, Attempt: attempt, Err: err, Elapsed: time.Since(attemptStart),
			})
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pesto: cancelled during %v: %w", st.stage, err)
			}
			// A stage that already ran out its deadline will do so
			// again; don't burn the next rung's budget re-proving it.
			if attempt <= stageRetries && !errors.Is(err, context.DeadlineExceeded) {
				time.Sleep(stageBackoff)
			} else {
				break
			}
		}
		reports = append(reports, StageReport{Stage: st.stage, Duration: time.Since(stageStart), Err: lastErr})
	}
	p := Provenance{Degraded: true, Attempts: attempts, Stages: reports}
	return nil, fmt.Errorf("pesto: every ladder stage failed (%w): %w", p.Err(), ErrNoPlacement)
}

// runStageAttempt runs one rung attempt under its budget, converting
// panics (a crashing solver, an injected fault) into errors.
func runStageAttempt(ctx context.Context, g *graph.Graph, sys sim.System, opts Options, st stageDef, budget time.Duration) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("stage %v: %v: %w", st.stage, r, ErrStagePanic)
		}
	}()
	if opts.StageHook != nil {
		if herr := opts.StageHook(st.stage); herr != nil {
			return nil, fmt.Errorf("stage %v: %w", st.stage, herr)
		}
	}
	// The stage plans against its share of the budget; the hard
	// backstop (2× budget plus slack) only fires when the stage stalls
	// past its own internal deadline discipline.
	stageOpts := opts
	stageOpts.ILPTimeLimit = budget
	sctx, cancel := context.WithDeadline(ctx, time.Now().Add(2*budget+250*time.Millisecond))
	defer cancel()
	return st.run(sctx, g, sys, stageOpts)
}

// placeFallback is the ladder's last rung: every baseline strategy the
// repository implements, realized on the simulator, best makespan
// wins. It needs no solver, no search budget and no luck — some plan
// always comes back for any system with at least one healthy GPU.
func placeFallback(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pesto fallback: %w", err)
	}
	plans := baselinePlans(ctx, engine.New(opts.Parallel), g, sys)
	i := baselines.Best(plans)
	if i < 0 {
		return nil, fmt.Errorf("pesto fallback: no baseline heuristic yields a feasible plan: %w", ErrNoPlacement)
	}
	bestPlan, bestMk := plans[i].Plan, plans[i].Makespan
	if opts.ScheduleFromILP {
		if ordered, err := orderByRun(g, sys, bestPlan); err == nil {
			if _, err := sim.Makespan(g, sys, ordered); err == nil {
				bestPlan = ordered
			}
		}
	}
	return &Result{
		Plan:              bestPlan,
		ILPStatus:         ilp.NoSolutionStatus,
		PredictedMakespan: bestMk,
		SimulatedMakespan: bestMk,
		PlacementTime:     time.Since(start),
	}, nil
}
