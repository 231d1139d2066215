package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

// ReplanResult is the outcome of Replan: a valid plan for the
// surviving devices plus the cost of the recovery.
type ReplanResult struct {
	// Plan is the recovered plan; the failed device carries zero
	// operations.
	Plan sim.Plan
	// Survivors is sys with the failed device marked Failed — the
	// system the plan validates and simulates against.
	Survivors sim.System
	// Makespan is the recovered plan's simulated per-step time on the
	// survivor system.
	Makespan time.Duration
	// PrevMakespan is the original plan's simulated per-step time on
	// the healthy system (zero when the original plan no longer
	// simulates cleanly).
	PrevMakespan time.Duration
	// RecoveryDelta is Makespan - PrevMakespan: what the failure costs
	// per training step.
	RecoveryDelta time.Duration
	// Migrated counts the operations moved off the failed device.
	Migrated int
	// PlacementTime is the end-to-end replanning time.
	PlacementTime time.Duration
	// Provenance marks the plan as degraded (StageReplan); its Err()
	// wraps ErrDegraded.
	Provenance Provenance
}

// Replan migrates every operation off a failed device onto the
// survivors under the memory constraints and re-optimizes the result
// with the refinement machinery: greedy most-free-memory migration
// (colocation groups move wholesale), then hill climbing at coarse
// granularity against the survivor system, all under the
// opts.ILPTimeLimit budget. The returned plan passes Validate and
// CheckMemory against the survivor system with the failed device
// carrying zero operations.
//
// The failed device must be a GPU — CPU and kernel operations have
// device affinity and nowhere to migrate (ErrUnsupportedSystem) — and
// at least one GPU must survive. When no survivor has room for an
// evicted operation, Replan fails with an error wrapping sim.ErrOOM:
// memory constraints are never degraded around.
func Replan(ctx context.Context, g *graph.Graph, sys sim.System, plan sim.Plan, failed sim.DeviceID, opts Options) (*ReplanResult, error) {
	fd, ok := sys.Device(failed)
	if !ok {
		return nil, fmt.Errorf("replan: unknown device %d: %w", failed, sim.ErrBadPlacement)
	}
	if fd.Kind != sim.GPU {
		return nil, fmt.Errorf("replan: device %s is not a GPU; its operations have device affinity and cannot migrate: %w", fd.Name, ErrUnsupportedSystem)
	}
	survivors := sys.WithFailedDevice(failed)
	if len(survivors.GPUs()) == 0 {
		return nil, fmt.Errorf("replan: no GPU survives the failure of %s: %w", fd.Name, ErrUnsupportedSystem)
	}
	return rebalance{
		op:     "replan",
		target: survivors,
		migrate: func(dev []sim.DeviceID) ([]sim.DeviceID, int, error) {
			return migrateOff(g, survivors, dev, failed)
		},
		degraded: true,
	}.run(ctx, g, sys, plan, opts)
}

// rebalance is what Replan and ReplanArrival differ in; run is the body
// they share.
type rebalance struct {
	op      string     // error prefix
	target  sim.System // the changed system the new plan runs on
	migrate func(dev []sim.DeviceID) ([]sim.DeviceID, int, error)
	// seedPrev also seeds the search with the unchanged plan, so the
	// rebalance never answers worse than doing nothing.
	seedPrev bool
	degraded bool
}

// run validates plan against sys, migrates it, re-validates the
// migrated vector against the target system under the memory
// constraints, then re-optimizes it with the refinement machinery: the
// migrated vector seeds the search, its projection seeds the
// coarse-level hill climb, all under the opts.ILPTimeLimit budget.
func (r rebalance) run(ctx context.Context, g *graph.Graph, sys sim.System, plan sim.Plan, opts Options) (*ReplanResult, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := plan.Validate(g, sys); err != nil {
		return nil, fmt.Errorf("%s: source plan: %w", r.op, err)
	}
	if plan.Order != nil {
		// A strictly scheduled plan should rebalance to a strictly
		// scheduled plan.
		opts.ScheduleFromILP = true
	}
	var prevMk time.Duration
	if mk, err := sim.Makespan(g, sys, plan); err == nil {
		prevMk = mk
	}
	dev, migrated, err := r.migrate(plan.Device)
	if err != nil {
		return nil, err
	}
	migratedPlan := sim.Plan{Device: dev, Policy: sim.PolicyFIFO}
	if err := migratedPlan.Validate(g, r.target); err != nil {
		return nil, fmt.Errorf("%s: migrated plan: %w", r.op, err)
	}
	if err := migratedPlan.CheckMemory(g, r.target); err != nil {
		return nil, fmt.Errorf("%s: migrated plan: %w", r.op, err)
	}

	s, err := newSearch(ctx, g, r.target, opts, start)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.op, err)
	}
	defer s.cancel()
	if r.seedPrev {
		s.h.evalOriginal(plan.Device)
	}
	s.h.adoptOriginal(dev)
	s.h.refine(s.sctx)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: cancelled during refinement: %w", r.op, err)
	}
	res, err := s.finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.op, err)
	}
	out := &ReplanResult{
		Plan:          res.Plan,
		Survivors:     r.target,
		Makespan:      res.SimulatedMakespan,
		PrevMakespan:  prevMk,
		Migrated:      migrated,
		PlacementTime: time.Since(start),
		Provenance:    Provenance{Stage: StageReplan, Degraded: r.degraded},
	}
	if prevMk > 0 {
		out.RecoveryDelta = out.Makespan - prevMk
	}
	// The new plan is verified against the target system: after a
	// failure the failed device is present but marked failed, so the
	// checker also proves nothing still runs on it.
	if verr := verifyResult(g, r.target, out.Plan, opts); verr != nil {
		return nil, verr
	}
	return out, nil
}

// memCap is a device's memory capacity, unlimited (math.MaxInt64) when
// the system sets none.
func memCap(sys sim.System, d sim.DeviceID) int64 {
	if dv, _ := sys.Device(d); dv.Memory > 0 {
		return dv.Memory
	}
	return math.MaxInt64
}

// migrateOff reassigns every operation on the failed device to the
// survivor GPU with the most free memory, biggest evictees first so
// large tensors claim space while it exists. Colocation groups move
// wholesale. The walk order is fully deterministic (memory desc, node
// ID asc). Fails with an ErrOOM-wrapped error when some evictee fits
// no survivor.
func migrateOff(g *graph.Graph, survivors sim.System, device []sim.DeviceID, failed sim.DeviceID) ([]sim.DeviceID, int, error) {
	dev := append([]sim.DeviceID(nil), device...)
	gpus := survivors.GPUs()

	// Free memory per survivor under the ops staying put.
	used := make(map[sim.DeviceID]int64, len(gpus))
	for _, n := range g.Nodes() {
		if dev[n.ID] != failed {
			used[dev[n.ID]] += n.Memory
		}
	}

	// Eviction units: colocation groups move wholesale (a validated
	// plan keeps each group on one device, so a group is either
	// entirely on the failed device or not at all).
	type unit struct {
		ids []graph.NodeID
		mem int64
	}
	groups := make(map[string]*unit)
	var units []*unit
	migrated := 0
	for _, n := range g.Nodes() {
		if dev[n.ID] != failed {
			continue
		}
		migrated++
		if n.Coloc != "" {
			u, ok := groups[n.Coloc]
			if !ok {
				u = &unit{}
				groups[n.Coloc] = u
				units = append(units, u)
			}
			u.ids = append(u.ids, n.ID)
			u.mem += n.Memory
		} else {
			units = append(units, &unit{ids: []graph.NodeID{n.ID}, mem: n.Memory})
		}
	}
	sort.SliceStable(units, func(i, j int) bool {
		if units[i].mem != units[j].mem {
			return units[i].mem > units[j].mem
		}
		return units[i].ids[0] < units[j].ids[0]
	})

	for _, u := range units {
		best := sim.DeviceID(-1)
		var bestFree int64 = -1
		for _, d := range gpus {
			free := memCap(survivors, d) - used[d]
			if free >= u.mem && free > bestFree {
				best, bestFree = d, free
			}
		}
		if best < 0 {
			return nil, 0, fmt.Errorf("replan: %d bytes (ops %v) evicted from device %d fit no survivor: %w",
				u.mem, u.ids, failed, sim.ErrOOM)
		}
		for _, id := range u.ids {
			dev[id] = best
		}
		used[best] += u.mem
	}
	return dev, migrated, nil
}
