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
	"pesto/internal/pipeline"
	"pesto/internal/sim"
)

// search is one placement search session, the set-up every entry point
// shares: the coarsened graph, one worker pool, the budget deadline and
// the telemetry recorder, with the fine-granularity heuristic that
// seeds, refines and keeps the best candidate (§3.3's coarsen → search
// → keep what the simulator scores best). finish turns its winner into a
// Result.
type search struct {
	g     *graph.Graph
	sys   sim.System // the system searched against (survivors after a failure)
	opts  Options
	start time.Time
	pool  *engine.Pool
	rec   *obs.Recorder
	// sctx expires at start+ILPTimeLimit. Only the open-ended refinement
	// runs on it: seeds and the finish run on the caller's context, so an
	// exhausted budget still yields a plan, and caller cancellation is
	// checked against the caller's context — a spent budget is normal, a
	// cancelled caller is an error.
	sctx   context.Context
	cancel context.CancelFunc
	// h is the fine granularity (CoarsenTarget) every entry point
	// searches.
	h *heuristic
}

// newSearch coarsens g to opts.CoarsenTarget under the placement.coarsen
// span and sets up a session searching sys from start. opts must already
// carry its defaults. The caller releases the deadline with cancel.
func newSearch(ctx context.Context, g *graph.Graph, sys sim.System, opts Options, start time.Time) (*search, error) {
	_, span := obs.Start(ctx, "placement.coarsen", obs.Int("target", int64(opts.CoarsenTarget)))
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: opts.CoarsenTarget})
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return nil, fmt.Errorf("pesto coarsen: %w", err)
	}
	span.End(obs.Int("coarse-nodes", int64(cres.Coarse.NumNodes())))
	s := &search{g: g, sys: sys, opts: opts, start: start, pool: engine.New(opts.Parallel), rec: obs.From(ctx)}
	s.sctx, s.cancel = context.WithDeadline(ctx, start.Add(opts.ILPTimeLimit))
	s.h = s.level(cres, nil)
	return s, nil
}

// level builds a heuristic over one coarsening of the session's graph,
// sharing its pool and recorder. Bound to the exact model m it is the
// ILP granularity, normalized by the model's horizon; without one it is
// normalized by horizonFor.
func (s *search) level(cres *coarsen.Result, m *model) *heuristic {
	h := &heuristic{model: m, cg: cres.Coarse, cres: cres, sys: s.sys, opts: s.opts, orig: s.g, pool: s.pool, rec: s.rec}
	if m != nil {
		h.horizon = m.horizon
	} else {
		h.horizon = horizonFor(s.g, s.sys)
	}
	return h
}

// seedAndRefine is the cold search: every warm start (and adopt, an
// original-granularity vector from elsewhere, when non-nil) under the
// placement.seed span, then the budget-bound hill climb under
// placement.refine.
func (s *search) seedAndRefine(ctx context.Context, adopt []sim.DeviceID) error {
	h := s.h
	_, seedSpan := obs.Start(ctx, "placement.seed")
	h.seedAssignments(ctx)
	h.seedListScheduling(ctx)
	h.seedBaselines(ctx)
	if adopt != nil {
		h.adoptOriginals(ctx, adopt)
	}
	seedSpan.End(obs.F64("objective", h.bestObj))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pesto: cancelled during warm start: %w", err)
	}
	roundsBefore := s.rec.Counter("placement.refine.rounds")
	_, refineSpan := obs.Start(ctx, "placement.refine")
	h.refine(s.sctx)
	refineSpan.End(obs.Int("rounds", s.rec.Counter("placement.refine.rounds")-roundsBefore),
		obs.F64("objective", h.bestObj))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pesto: cancelled during refinement: %w", err)
	}
	return nil
}

// finish realizes the session's best device vector under the schedule
// disciplines (candidatePlans, then finalize) and assembles the Result around it: the simulated winner,
// the coarse plan it was refined as, the predicted (best scored)
// makespan, the coarsening's size and effort, and the placement time.
func (s *search) finish(ctx context.Context) (*Result, error) {
	h := s.h
	if h.bestDev == nil {
		return nil, fmt.Errorf("pesto: no candidate plan simulates: %w", ErrNoPlacement)
	}
	plan, mk, _, err := h.finalize(ctx, h.candidatePlans(h.bestDev))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Plan:              plan,
		CoarseSize:        h.cg.NumNodes(),
		CoarsenIterations: h.cres.Iterations,
		ILPStatus:         ilp.FeasibleStatus,
		PredictedMakespan: time.Duration(h.bestObj * float64(h.horizon)),
		SimulatedMakespan: mk,
		PlacementTime:     time.Since(s.start),
	}
	if h.coarseBest != nil {
		res.CoarsePlan = sim.Plan{Device: append([]sim.DeviceID(nil), h.coarseBest...), Policy: sim.PolicyFIFO}
	}
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

// stageAssign turns a contiguous-split partition of cg into a coarse
// device vector: every stage's nodes on its device, the rest on the CPU.
func stageAssign(cg *graph.Graph, sys sim.System, part *pipeline.Partition) []sim.DeviceID {
	assign := make([]sim.DeviceID, cg.NumNodes())
	cpu := sys.CPUID()
	for i := range assign {
		assign[i] = cpu
	}
	for _, st := range part.Stages {
		for _, id := range st.Nodes {
			assign[id] = st.Device
		}
	}
	return assign
}
