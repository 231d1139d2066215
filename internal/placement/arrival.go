package placement

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

// ReplanArrival is the scale-up mirror of Replan: a new (or recovered)
// GPU joins the system and the running plan is rebalanced onto it.
// Where Replan evicts everything off a dead device, ReplanArrival
// migrates the heaviest eviction units (colocation groups wholesale,
// then singles, by compute cost) off the most-loaded survivors onto
// the arrival until its share reaches the balanced load, then
// re-optimizes the result with the refinement machinery — the migrated
// vector seeds the search exactly as in the failure path. The returned
// plan passes Validate and CheckMemory against sys with the arrival
// healthy.
//
// The arrived device must be a healthy GPU in sys (ErrUnsupportedSystem
// otherwise), and plan must be valid for sys — typically a plan
// computed while the device was failed, which a valid plan then simply
// does not use. RecoveryDelta is Makespan - PrevMakespan and is
// normally negative: the arrival buys speedup. Provenance carries
// StageReplan but not Degraded — scale-up is an improvement, not a
// fallback.
func ReplanArrival(ctx context.Context, g *graph.Graph, sys sim.System, plan sim.Plan, arrived sim.DeviceID, opts Options) (*ReplanResult, error) {
	ad, ok := sys.Device(arrived)
	if !ok {
		return nil, fmt.Errorf("replan-arrival: unknown device %d: %w", arrived, sim.ErrBadPlacement)
	}
	if ad.Kind != sim.GPU {
		return nil, fmt.Errorf("replan-arrival: device %s is not a GPU: %w", ad.Name, ErrUnsupportedSystem)
	}
	if ad.Failed {
		return nil, fmt.Errorf("replan-arrival: device %s is marked failed; clear the failure before rebalancing onto it: %w", ad.Name, ErrUnsupportedSystem)
	}
	return rebalance{
		op:     "replan-arrival",
		target: sys,
		migrate: func(dev []sim.DeviceID) ([]sim.DeviceID, int, error) {
			dev, migrated := migrateOnto(g, sys, dev, arrived)
			return dev, migrated, nil
		},
		seedPrev: true,
	}.run(ctx, g, sys, plan, opts)
}

// migrateOnto rebalances compute onto a newly arrived GPU: eviction
// units (colocation groups wholesale, singles otherwise) are pulled
// off the most-loaded donor GPUs, heaviest compute first, until the
// arrival's load reaches the balanced share total/k or nothing movable
// fits its memory. The walk is fully deterministic (donor load desc /
// ID asc, unit cost desc / node ID asc). Migration is best-effort —
// an arrival nothing fits onto migrates zero units and the refiner
// decides from there.
func migrateOnto(g *graph.Graph, sys sim.System, device []sim.DeviceID, arrived sim.DeviceID) ([]sim.DeviceID, int) {
	dev := append([]sim.DeviceID(nil), device...)
	gpus := sys.GPUs()

	load := make(map[sim.DeviceID]time.Duration, len(gpus))
	used := make(map[sim.DeviceID]int64, len(gpus))
	var total time.Duration
	for _, n := range g.Nodes() {
		d := dev[n.ID]
		dv, _ := sys.Device(d)
		if dv.Kind != sim.GPU {
			continue
		}
		load[d] += n.Cost
		used[d] += n.Memory
		total += n.Cost
	}
	target := total / time.Duration(len(gpus))

	// Eviction units per donor device.
	type unit struct {
		ids  []graph.NodeID
		cost time.Duration
		mem  int64
	}
	byDevice := make(map[sim.DeviceID][]*unit)
	groups := make(map[string]*unit)
	for _, n := range g.Nodes() {
		d := dev[n.ID]
		if d == arrived {
			continue
		}
		if dv, _ := sys.Device(d); dv.Kind != sim.GPU || dv.Failed {
			continue
		}
		if n.Coloc != "" {
			u, ok := groups[n.Coloc]
			if !ok {
				u = &unit{}
				groups[n.Coloc] = u
				byDevice[d] = append(byDevice[d], u)
			}
			u.ids = append(u.ids, n.ID)
			u.cost += n.Cost
			u.mem += n.Memory
		} else {
			byDevice[d] = append(byDevice[d], &unit{ids: []graph.NodeID{n.ID}, cost: n.Cost, mem: n.Memory})
		}
	}
	for _, us := range byDevice {
		sort.SliceStable(us, func(i, j int) bool {
			if us[i].cost != us[j].cost {
				return us[i].cost > us[j].cost
			}
			return us[i].ids[0] < us[j].ids[0]
		})
	}

	migrated := 0
	for load[arrived] < target {
		// Heaviest donor still above the balanced share.
		donor := sim.DeviceID(-1)
		for _, d := range gpus {
			if d == arrived || len(byDevice[d]) == 0 || load[d] <= target {
				continue
			}
			if donor < 0 || load[d] > load[donor] || (load[d] == load[donor] && d < donor) {
				donor = d
			}
		}
		if donor < 0 {
			break
		}
		// Its heaviest unit that fits the arrival's memory and does not
		// swing the donor below what the arrival would rise to.
		moved := false
		for i, u := range byDevice[donor] {
			if used[arrived]+u.mem > memCap(sys, arrived) {
				continue
			}
			if load[donor]-u.cost < load[arrived] {
				continue
			}
			for _, id := range u.ids {
				dev[id] = arrived
			}
			load[donor] -= u.cost
			used[donor] -= u.mem
			load[arrived] += u.cost
			used[arrived] += u.mem
			migrated += len(u.ids)
			byDevice[donor] = append(byDevice[donor][:i], byDevice[donor][i+1:]...)
			moved = true
			break
		}
		if !moved {
			byDevice[donor] = nil // nothing movable from this donor
		}
	}
	return dev, migrated
}
