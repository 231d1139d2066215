package placement

import (
	"context"
	"fmt"
	"time"

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
