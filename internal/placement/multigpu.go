package placement

import (
	"context"
	"fmt"
	"time"

	"pesto/internal/coarsen"
	"pesto/internal/comm"
	"pesto/internal/engine"
	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/obs"
	"pesto/internal/sim"
)

// PlaceMultiGPU extends Pesto to systems with more than two GPUs — the
// extension §3.2.2 sketches ("for 4 GPUs, the placement of operation i
// can be indicated by the pair {x_i, y_i}"). The exact ILP here covers
// the paper's primary two-GPU setting; for k > 2 GPUs this function
// runs the same pipeline with the ILP step replaced by its warm-start
// and refinement machinery generalized to k devices (seeds, greedy
// earliest-start placement, colocation/memory repair, hill climbing),
// all evaluated through the same simulator. For exactly two GPUs it
// defers to Place.
func PlaceMultiGPU(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	gpus := sys.GPUs()
	if len(gpus) == 2 {
		return Place(ctx, g, sys, opts)
	}
	if len(gpus) < 2 {
		return nil, fmt.Errorf("pesto: system has %d usable GPUs: %w", len(gpus), ErrUnsupportedSystem)
	}
	opts = opts.withDefaults()
	ctx, span := obs.Start(ctx, "placement.place",
		obs.Int("graph-nodes", int64(g.NumNodes())), obs.Int("gpus", int64(len(gpus))))
	var res *Result
	var err error
	if opts.Pipeline.Enabled() {
		// See Place: the pipeline regime bypasses the ladder so its
		// provenance survives.
		res, err = placePipeline(ctx, g, sys, opts)
	} else if opts.DisableFallback {
		res, err = placeRefine(ctx, g, sys, opts)
	} else {
		// k > 2 has no exact rung; its ladder is refine →
		// contiguous-split DP → heuristics.
		kept, skipped := stagesFrom([]stageDef{
			{StageRefine, placeRefine},
			{StagePipelineDP, placePipelineDP},
			{StageFallback, placeFallback},
		}, opts.StartStage)
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

// placeRefine is the ILP-free pipeline: warm-start seeds, greedy
// list-scheduling placements, colocation/memory repair and
// hill-climbing refinement, all evaluated through the simulator. It is
// the primary pipeline for k > 2 GPUs and the middle rung of the
// two-GPU degradation ladder (it works for any k >= 1).
func placeRefine(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if len(sys.GPUs()) < 1 {
		return nil, fmt.Errorf("pesto: system has no usable GPUs: %w", ErrUnsupportedSystem)
	}

	rec := obs.From(ctx)
	_, coarsenSpan := obs.Start(ctx, "placement.coarsen", obs.Int("target", int64(opts.CoarsenTarget)))
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: opts.CoarsenTarget})
	if err != nil {
		coarsenSpan.End(obs.String("outcome", "error"))
		return nil, fmt.Errorf("pesto coarsen: %w", err)
	}
	coarsenSpan.End(obs.Int("coarse-nodes", int64(cres.Coarse.NumNodes())))

	pool := engine.New(opts.Parallel)
	// The warm-start and refinement phases share the ILP's time budget;
	// caller cancellation is checked separately so a cancelled caller
	// gets an error, not a half-refined plan.
	sctx, cancelSearch := context.WithDeadline(ctx, start.Add(opts.ILPTimeLimit))
	defer cancelSearch()

	h := &heuristic{
		cg:      cres.Coarse,
		sys:     sys,
		horizon: horizonFor(g, sys),
		opts:    opts,
		orig:    g,
		cres:    cres,
		pool:    pool,
		rec:     rec,
	}
	// Seeds run on the caller's context so an exhausted time budget
	// still yields an incumbent; only refinement is budget-bound.
	_, seedSpan := obs.Start(ctx, "placement.seed")
	h.seedAssignments(ctx)
	h.seedListScheduling(ctx)
	h.seedBaselines(ctx)
	seedSpan.End(obs.F64("objective", h.bestObj))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pesto: cancelled during warm start: %w", err)
	}
	roundsBefore := rec.Counter("placement.refine.rounds")
	_, refineSpan := obs.Start(ctx, "placement.refine")
	h.refine(sctx)
	refineSpan.End(obs.Int("rounds", rec.Counter("placement.refine.rounds")-roundsBefore),
		obs.F64("objective", h.bestObj))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pesto: cancelled during refinement: %w", err)
	}
	if h.bestDev == nil {
		return nil, fmt.Errorf("pesto multi-gpu: %w", ErrNoPlacement)
	}

	res := &Result{
		CoarseSize:        cres.Coarse.NumNodes(),
		ILPStatus:         ilp.FeasibleStatus,
		CoarsenIterations: cres.Iterations,
		PredictedMakespan: time.Duration(h.bestObj * float64(h.horizon)),
	}
	plan, mk, err := h.finalizePlan(ctx, h.bestDev)
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	res.SimulatedMakespan = mk
	res.CoarsePlan = sim.Plan{Device: append([]sim.DeviceID(nil), h.coarseBest...), Policy: sim.PolicyFIFO}
	res.PlacementTime = time.Since(start)
	return res, nil
}

// horizonFor is the objective normalization unit used when no ILP model
// exists: total compute plus a worst-case communication bound.
func horizonFor(g *graph.Graph, sys sim.System) time.Duration {
	h := g.TotalCost()
	for _, e := range g.Edges() {
		h += sys.Comm.Time(comm.GPUToGPU, e.Bytes)
	}
	if h <= 0 {
		h = time.Nanosecond
	}
	return h
}

// finalizePlan realizes a device vector under the heuristic's schedule
// disciplines and returns the better plan with its simulated makespan.
func (h *heuristic) finalizePlan(ctx context.Context, dev []sim.DeviceID) (sim.Plan, time.Duration, error) {
	plan, mk, _, err := h.finalize(ctx, h.candidatePlans(dev))
	return plan, mk, err
}

// finalize realizes candidate original-graph plans and returns the one
// with the lowest simulated makespan, the makespan and its index in
// cands. With ScheduleFromILP a candidate without an explicit order
// first gets one from its simulated start times, so downstream
// consumers (e.g. the runtime executor) get control dependencies
// either way; without it the winner is returned placement-only. The
// candidates are realized concurrently and the winner is reduced in
// candidate order (first wins ties), so the result is independent of
// worker count.
func (h *heuristic) finalize(ctx context.Context, cands []sim.Plan) (sim.Plan, time.Duration, int, error) {
	simSys, sc := h.simSystem(), h.scorer()
	type finalized struct {
		plan sim.Plan
		mk   time.Duration
		ok   bool
	}
	outs, err := engine.Map(ctx, h.pool, len(cands), func(_ context.Context, i int) (finalized, error) {
		cand := cands[i]
		if cand.Order == nil && h.opts.ScheduleFromILP {
			r, err := sim.Run(h.orig, simSys, cand)
			if err != nil {
				return finalized{}, nil
			}
			oc, err := orderPlanByStarts(h.orig, cand, r.Start, len(h.sys.Devices))
			if err != nil {
				return finalized{}, nil
			}
			cand = oc
		}
		mk, err := sc.Makespan(cand)
		if err != nil {
			return finalized{}, nil
		}
		return finalized{plan: cand, mk: mk, ok: true}, nil
	})
	if err != nil {
		return sim.Plan{}, 0, -1, fmt.Errorf("pesto: cancelled during candidate evaluation: %w", err)
	}
	best := -1
	for i, o := range outs {
		if o.Err != nil || !o.Value.ok {
			continue
		}
		if best < 0 || o.Value.mk < outs[best].Value.mk {
			best = i
		}
	}
	if best < 0 {
		return sim.Plan{}, 0, -1, fmt.Errorf("pesto: no candidate plan simulates: %w", ErrNoPlacement)
	}
	plan := outs[best].Value.plan
	if !h.opts.ScheduleFromILP {
		plan = sim.Plan{Device: plan.Device, Policy: sim.PolicyFIFO}
	}
	return plan, outs[best].Value.mk, best, nil
}
