package placement

import (
	"context"
	"fmt"
	"time"

	"pesto/internal/graph"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

// placePipelineDP is the contiguous-split rung of the degradation
// ladder: the Tarnawski-style DP cuts the coarse graph's topological
// order into one contiguous stage per device, minimizing the
// bottleneck stage time under the communication model, and the best of
// those splits (one per stage count) and the baseline placements wins.
// No hill climbing, no LP — a fast rung between refinement and the
// bare heuristics.
func placePipelineDP(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	s, err := newSearch(ctx, g, sys, opts.withDefaults(), time.Now())
	if err != nil {
		return nil, err
	}
	defer s.cancel()
	h, gpus := s.h, sys.GPUs()
	// One DP split per stage count: deeper cuts trade communication
	// for balance, and the simulator arbitrates.
	for S := len(gpus); S >= 1; S-- {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pesto pipeline-dp: %w", err)
		}
		part, perr := pipeline.PartitionDP(h.cg, sys, gpus[:S], -1)
		if perr != nil {
			continue
		}
		assign := stageAssign(h.cg, sys, part)
		h.repairColocAssign(assign)
		h.repairMemory(assign)
		h.evalAssign(assign)
	}
	// Adopting the baseline set keeps the ladder monotone: this rung
	// never answers worse than the fallback rung below it.
	h.seedBaselines(ctx)
	return s.finish(ctx)
}

// placePipeline is the Options.Pipeline planning regime: coarsen, run
// the joint (partition, schedule) search of internal/pipeline over the
// coarse graph, prove the winning microbatched plan against the
// verifier's pipeline invariants, and return the stage placement
// expanded to the original graph with the pipeline provenance
// attached.
//
// Result.Plan is the stage placement as an ordinary FIFO plan for the
// original graph (so every existing consumer — verifier, executor,
// cache — keeps working), while Result.Provenance.Pipeline carries the
// microbatched step: schedule, simulated step time, bubble fraction,
// per-stage utilization and peak memory. Result.SimulatedMakespan is
// the pipeline step time — the quantity the regime optimizes.
func placePipeline(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := opts.Pipeline.Validate(); err != nil {
		return nil, fmt.Errorf("pesto pipeline: %w", err)
	}
	ctx, span := obs.Start(ctx, "placement.pipeline",
		obs.Int("microbatches", int64(opts.Pipeline.Microbatches)),
		obs.String("schedule", opts.Pipeline.Schedule.String()))
	s, out, err := pipelineSearch(ctx, g, sys, opts, start)
	if err != nil {
		span.End(obs.String("outcome", "error"), obs.String("error", err.Error()))
		return nil, err
	}
	defer s.cancel()
	// Every emitted pipeline plan is re-proved against the independent
	// pipeline invariants (stage contiguity, microbatch precedence,
	// memory, cross-stage overlap) — unconditionally: the microbatched
	// schedule is exactly the artifact the search cannot be trusted to
	// certify itself.
	if _, verr := verify.CheckPipeline(out.Plan.Graph, pipelineSystem(sys, opts), out.Plan.Sim, out.Plan.Meta); verr != nil {
		span.End(obs.String("outcome", "verification-failed"))
		return nil, fmt.Errorf("pesto pipeline: %w: %w", ErrVerification, verr)
	}

	// Expand the stage assignment to the original graph through the
	// usual repair + candidate machinery so colocation and memory hold
	// at operation granularity.
	h := s.h
	assign := stageAssign(h.cg, sys, out.Plan.Partition)
	h.repairColocAssign(assign)
	h.repairMemory(assign)
	if !h.evalAssign(assign) {
		return nil, fmt.Errorf("pesto pipeline: stage placement does not simulate: %w", ErrNoPlacement)
	}
	res, err := s.finish(ctx)
	if err != nil {
		return nil, err
	}
	fifoMk := res.SimulatedMakespan
	info := out.Info()
	res.PredictedMakespan = out.FIFOStep
	res.SimulatedMakespan = out.Score.Makespan
	res.Provenance = Provenance{Stage: StagePipelineDP, Pipeline: info}
	span.End(obs.String("outcome", "ok"),
		obs.Int("stages", int64(info.Stages)),
		obs.Dur("step", info.Makespan),
		obs.F64("bubble", info.Bubble),
		obs.Dur("fifo-step", fifoMk))
	return res, nil
}

// pipelineSearch is the front half placePipeline and PipelinePlan
// share: a search session over the coarse graph and the joint
// (partition, schedule) search on it.
func pipelineSearch(ctx context.Context, g *graph.Graph, sys sim.System, opts Options, start time.Time) (*search, *pipeline.Outcome, error) {
	s, err := newSearch(ctx, g, sys, opts, start)
	if err != nil {
		return nil, nil, err
	}
	out, err := pipeline.Search(ctx, s.h.cg, pipelineSystem(sys, opts), opts.Pipeline)
	if err != nil {
		s.cancel()
		return nil, nil, fmt.Errorf("pesto pipeline: %w", err)
	}
	return s, out, nil
}

// pipelineSystem is the system the pipeline search plans and is
// verified against: with DisableMemory, capacity is lifted.
func pipelineSystem(sys sim.System, opts Options) sim.System {
	if opts.DisableMemory {
		return liftMemory(sys)
	}
	return sys
}

// PipelinePlan re-materializes the winning microbatched execution
// artifact for a pipeline-regime result: the replicated task graph,
// the simulator plan with the per-device schedule orders, and the
// metadata. Callers that want to execute or inspect the microbatched
// step (experiments, traces, the verifier sweep) rebuild it from the
// same deterministic inputs rather than carrying the full artifact on
// every Result.
func PipelinePlan(g *graph.Graph, sys sim.System, opts Options) (*pipeline.Plan, error) {
	opts = opts.withDefaults()
	if !opts.Pipeline.Enabled() {
		return nil, fmt.Errorf("pesto pipeline: Options.Pipeline not set: %w", pipeline.ErrBadSpec)
	}
	s, out, err := pipelineSearch(context.Background(), g, sys, opts, time.Now())
	if err != nil {
		return nil, err
	}
	s.cancel()
	return out.Plan, nil
}
