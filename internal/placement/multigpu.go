package placement

import (
	"context"
	"fmt"
	"time"

	"pesto/internal/engine"
	"pesto/internal/graph"
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
// runs Place's ladder.
func PlaceMultiGPU(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	if n := len(sys.GPUs()); n < 2 {
		return nil, fmt.Errorf("pesto: system has %d usable GPUs: %w", n, ErrUnsupportedSystem)
	}
	return placeLadder(ctx, g, sys, opts)
}

// placeRefine is the ILP-free pipeline: warm-start seeds, greedy
// list-scheduling placements, colocation/memory repair and
// hill-climbing refinement, all evaluated through the simulator. It is
// the primary pipeline for k > 2 GPUs and the middle rung of the
// two-GPU degradation ladder (it works for any k >= 1).
func placeRefine(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	s, err := newSearch(ctx, g, sys, opts.withDefaults(), time.Now())
	if err != nil {
		return nil, err
	}
	defer s.cancel()
	if err := s.seedAndRefine(ctx, nil); err != nil {
		return nil, err
	}
	return s.finish(ctx)
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
