package verify

import (
	"fmt"
	"math"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

// LowerBound computes a makespan lower bound that every feasible
// placement/schedule of g on sys must respect — the oracle the
// heuristic and exact engines are measured against.
//
// The bound keeps what is true of every schedule and drops what any
// schedule may choose:
//
//   - each operation runs for at least its best-case duration (fastest
//     compatible healthy device, with the simulator's rounding);
//   - each edge delays its consumer by at least the cheapest
//     communication any device assignment allows (zero when the two
//     endpoints could colocate);
//   - the total best-case work of an affinity class cannot beat its
//     aggregate processing capacity (Σ p_min / m machines).
//
// Written as an LP relaxation in the spirit of the bounds Tarnawski et
// al. validate against, every row is a difference constraint between
// non-negative start times or a constant floor on the makespan, so the
// optimum has a closed form: the longest path under p_min with the
// cheapest-communication edge weights (Mayer et al.'s critical path),
// or one of the two capacity floors, whichever is larger. One pass in
// topological order computes it.
//
// Placement, congestion queueing and memory are relaxed away, so the
// bound is valid for every engine: analytic simulator, event-driven
// runtime, ILP ladder, baselines and replan output alike. A plan whose
// realized makespan undercuts it is wrong by construction.
func LowerBound(g *graph.Graph, sys sim.System) (time.Duration, error) {
	n := g.NumNodes()
	if n == 0 {
		return 0, nil
	}
	nodes := g.Nodes()

	// Per-node best-case durations and compatible-device sets.
	durMin := make([]float64, n)
	compat := make([][]sim.DeviceID, n)
	for _, nd := range nodes {
		best := math.Inf(1)
		for _, d := range sys.Devices {
			if !sys.CompatibleDevice(nd.Kind, d.ID) {
				continue
			}
			compat[nd.ID] = append(compat[nd.ID], d.ID)
			speed := d.Speed
			if speed <= 0 {
				speed = 1
			}
			if dur := math.Round(float64(nd.Cost) / speed); dur < best {
				best = dur
			}
		}
		if len(compat[nd.ID]) == 0 {
			return 0, fmt.Errorf("lower bound: node %d (%v) has no compatible device: %w", nd.ID, nd.Kind, ErrAffinity)
		}
		durMin[nd.ID] = best
	}

	order, err := g.TopoSort()
	if err != nil {
		return 0, fmt.Errorf("lower bound: %w", err)
	}
	// Earliest starts under precedence with cheapest-possible
	// communication; the makespan is at least every finish.
	start := make([]float64, n)
	var obj float64
	for _, v := range order {
		obj = math.Max(obj, start[v]+durMin[v])
		for _, e := range g.Succ(v) {
			rhs := durMin[v] + minComm(sys, compat[v], compat[e.To], e.Bytes)
			start[e.To] = math.Max(start[e.To], start[v]+rhs)
		}
	}
	// Aggregate capacity per affinity class: any schedule keeps some
	// machine busy for at least the class's best-case work share.
	var gpuWork, cpuWork float64
	for _, nd := range nodes {
		if nd.Kind == graph.KindGPU {
			gpuWork += durMin[nd.ID]
		} else {
			cpuWork += durMin[nd.ID]
		}
	}
	if m := len(sys.GPUs()); m > 0 {
		obj = math.Max(obj, gpuWork/float64(m))
	}
	obj = math.Max(obj, cpuWork)

	// Realized makespans are integer nanoseconds, so any true bound t
	// implies makespan ≥ ⌈t⌉. Back the float objective off by a small
	// epsilon before taking the ceiling so rounding noise can only
	// loosen the bound, never overstate it. obj ≥ 0, so the result is
	// never below 0.
	eps := 0.5 + 1e-9*obj
	return time.Duration(math.Ceil(obj - eps)), nil
}

// minComm is the cheapest communication time any assignment of the two
// endpoints allows: zero when they share a compatible device, else the
// minimum transfer time over compatible device pairs.
func minComm(sys sim.System, from, to []sim.DeviceID, bytes int64) float64 {
	best := math.Inf(1)
	for _, a := range from {
		for _, b := range to {
			if t := float64(sys.TransferTime(a, b, bytes)); t < best {
				best = t
			}
			if best == 0 {
				return 0
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
