package placement

import (
	"context"
	"fmt"
	"time"

	"pesto/internal/coarsen"
	"pesto/internal/engine"
	"pesto/internal/graph"
	"pesto/internal/ilp"
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
// bare heuristics. With Options.Pipeline set it instead runs the full
// microbatched pipeline planning regime (placePipeline).
func placePipelineDP(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	if opts.Pipeline.Enabled() {
		return placePipeline(ctx, g, sys, opts)
	}
	start := time.Now()
	opts = opts.withDefaults()
	gpus := sys.GPUs()
	if len(gpus) < 1 {
		return nil, fmt.Errorf("pesto pipeline-dp: system has no usable GPUs: %w", ErrUnsupportedSystem)
	}
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: opts.CoarsenTarget})
	if err != nil {
		return nil, fmt.Errorf("pesto pipeline-dp coarsen: %w", err)
	}
	h := &heuristic{
		cg:      cres.Coarse,
		sys:     sys,
		horizon: horizonFor(g, sys),
		opts:    opts,
		orig:    g,
		cres:    cres,
		pool:    engine.New(opts.Parallel),
		rec:     obs.From(ctx),
	}
	// One DP split per stage count: deeper cuts trade communication
	// for balance, and the simulator arbitrates.
	cpu := sys.CPUID()
	for S := len(gpus); S >= 1; S-- {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pesto pipeline-dp: %w", err)
		}
		part, perr := pipeline.PartitionDP(h.cg, sys, gpus[:S], -1)
		if perr != nil {
			continue
		}
		assign := make([]sim.DeviceID, h.cg.NumNodes())
		for i := range assign {
			assign[i] = cpu
		}
		for _, st := range part.Stages {
			for _, id := range st.Nodes {
				assign[id] = st.Device
			}
		}
		h.repairColocAssign(assign)
		h.repairMemory(assign)
		h.evalAssign(assign)
	}
	// Adopting the baseline set keeps the ladder monotone: this rung
	// never answers worse than the fallback rung below it.
	h.seedBaselines(ctx)
	if h.bestDev == nil {
		return nil, fmt.Errorf("pesto pipeline-dp: %w", ErrNoPlacement)
	}
	plan, mk, err := h.finalizePlan(ctx, h.bestDev)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Plan:              plan,
		CoarseSize:        cres.Coarse.NumNodes(),
		ILPStatus:         ilp.FeasibleStatus,
		CoarsenIterations: cres.Iterations,
		PredictedMakespan: time.Duration(h.bestObj * float64(h.horizon)),
		SimulatedMakespan: mk,
		PlacementTime:     time.Since(start),
	}
	if h.coarseBest != nil {
		res.CoarsePlan = sim.Plan{Device: append([]sim.DeviceID(nil), h.coarseBest...), Policy: sim.PolicyFIFO}
	}
	return res, nil
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
	popts := opts.Pipeline.WithDefaults()
	if err := popts.Validate(); err != nil {
		return nil, fmt.Errorf("pesto pipeline: %w", err)
	}
	ctx, span := obs.Start(ctx, "placement.pipeline",
		obs.Int("microbatches", int64(popts.Microbatches)),
		obs.String("schedule", popts.Schedule.String()))
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: opts.CoarsenTarget})
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return nil, fmt.Errorf("pesto pipeline coarsen: %w", err)
	}
	searchSys := sys
	if opts.DisableMemory {
		searchSys = liftMemory(sys)
	}
	out, err := pipeline.Search(ctx, cres.Coarse, searchSys, popts)
	if err != nil {
		span.End(obs.String("outcome", "error"), obs.String("error", err.Error()))
		return nil, fmt.Errorf("pesto pipeline: %w", err)
	}
	// Every emitted pipeline plan is re-proved against the independent
	// pipeline invariants (stage contiguity, microbatch precedence,
	// memory, cross-stage overlap) — unconditionally: the microbatched
	// schedule is exactly the artifact the search cannot be trusted to
	// certify itself.
	if _, verr := verify.CheckPipeline(out.Plan.Graph, searchSys, out.Plan.Sim, out.Plan.Meta); verr != nil {
		span.End(obs.String("outcome", "verification-failed"))
		return nil, fmt.Errorf("pesto pipeline: %w: %w", ErrVerification, verr)
	}

	// Expand the stage assignment to the original graph through the
	// usual repair + candidate machinery so colocation and memory hold
	// at operation granularity.
	h := &heuristic{
		cg:      cres.Coarse,
		sys:     sys,
		horizon: horizonFor(g, sys),
		opts:    opts,
		orig:    g,
		cres:    cres,
		pool:    engine.New(opts.Parallel),
		rec:     obs.From(ctx),
	}
	assign := make([]sim.DeviceID, h.cg.NumNodes())
	cpu := sys.CPUID()
	for i := range assign {
		assign[i] = cpu
	}
	for _, st := range out.Plan.Partition.Stages {
		for _, id := range st.Nodes {
			assign[id] = st.Device
		}
	}
	h.repairColocAssign(assign)
	h.repairMemory(assign)
	if _, ok := h.evalAssign(assign); !ok {
		return nil, fmt.Errorf("pesto pipeline: stage placement does not simulate: %w", ErrNoPlacement)
	}
	plan, fifoMk, err := h.finalizePlan(ctx, h.bestDev)
	if err != nil {
		return nil, err
	}

	info := out.Info()
	res := &Result{
		Plan:              plan,
		CoarseSize:        cres.Coarse.NumNodes(),
		ILPStatus:         ilp.FeasibleStatus,
		CoarsenIterations: cres.Iterations,
		PredictedMakespan: out.FIFOStep,
		SimulatedMakespan: out.Score.Makespan,
		PlacementTime:     time.Since(start),
		Provenance: Provenance{
			Stage:    StagePipelineDP,
			Pipeline: info,
		},
	}
	res.CoarsePlan = sim.Plan{Device: append([]sim.DeviceID(nil), assign...), Policy: sim.PolicyFIFO}
	span.End(obs.String("outcome", "ok"),
		obs.Int("stages", int64(info.Stages)),
		obs.Dur("step", info.Makespan),
		obs.F64("bubble", info.Bubble),
		obs.Dur("fifo-step", fifoMk))
	return res, nil
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
	popts := opts.Pipeline.WithDefaults()
	if !popts.Enabled() {
		return nil, fmt.Errorf("pesto pipeline: Options.Pipeline not set: %w", pipeline.ErrBadSpec)
	}
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: opts.CoarsenTarget})
	if err != nil {
		return nil, fmt.Errorf("pesto pipeline coarsen: %w", err)
	}
	searchSys := sys
	if opts.DisableMemory {
		searchSys = liftMemory(sys)
	}
	out, err := pipeline.Search(context.Background(), cres.Coarse, searchSys, popts)
	if err != nil {
		return nil, fmt.Errorf("pesto pipeline: %w", err)
	}
	return out.Plan, nil
}
