package sim

import (
	"errors"
	"fmt"
	"math"

	"pesto/internal/graph"
)

// SchedulePolicy selects how a device picks among ready operations when
// the plan carries no explicit per-device order.
type SchedulePolicy int

const (
	// PolicyFIFO executes ready operations in the order they became
	// ready (ties by node ID). Deterministic stand-in for TensorFlow's
	// ready-queue behaviour.
	PolicyFIFO SchedulePolicy = iota + 1
	// PolicyRandom picks a uniformly random ready operation, matching
	// §2.1's "TensorFlow randomly picks an operation from the ready
	// queue". Seeded for reproducibility via Plan.Seed.
	PolicyRandom
	// PolicyPriority picks the ready operation with the highest
	// Plan.Priority value (ties by node ID). Used by list-scheduling
	// baselines such as critical-path-first.
	PolicyPriority
)

// String implements fmt.Stringer.
func (p SchedulePolicy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyRandom:
		return "random"
	case PolicyPriority:
		return "priority"
	default:
		return fmt.Sprintf("SchedulePolicy(%d)", int(p))
	}
}

// Plan is a placement plus an optional schedule for a graph: the output
// of Pesto and of every baseline, and the input to the simulator.
type Plan struct {
	// Device maps each node (by ID index) to the device executing it.
	Device []DeviceID

	// Order, when non-nil, gives the explicit execution order of the
	// operations assigned to each device (outer index: DeviceID).
	// Devices honor it strictly — exactly what Pesto enforces in
	// TensorFlow via control dependencies (§4). Devices may be absent
	// (nil inner slice) when they host no operations.
	Order [][]graph.NodeID

	// Policy selects the ready-queue discipline used for devices
	// without an explicit order; zero means PolicyFIFO.
	Policy SchedulePolicy

	// Priority holds per-node priorities for PolicyPriority.
	Priority []float64

	// Seed seeds PolicyRandom.
	Seed int64
}

// Clone returns a deep copy of the plan. Simulation never mutates a
// plan, so cloning is only needed when a caller wants to modify a plan
// (e.g. generate refinement moves) while other goroutines still read
// the original.
func (p Plan) Clone() Plan {
	out := Plan{Policy: p.Policy, Seed: p.Seed}
	if p.Device != nil {
		out.Device = append([]DeviceID(nil), p.Device...)
	}
	if p.Priority != nil {
		out.Priority = append([]float64(nil), p.Priority...)
	}
	if p.Order != nil {
		out.Order = make([][]graph.NodeID, len(p.Order))
		for d, ids := range p.Order {
			if ids != nil {
				out.Order[d] = append([]graph.NodeID(nil), ids...)
			}
		}
	}
	return out
}

// Errors reported by Plan validation and simulation.
var (
	ErrBadPlacement = errors.New("invalid placement")
	ErrOOM          = errors.New("out of device memory")
)

// Validate checks the plan against a graph and system: every node is
// placed on a compatible existing device, colocation groups stay
// together, and any explicit order covers exactly the nodes placed on
// that device.
func (p Plan) Validate(g *graph.Graph, sys System) error {
	nodes := g.NumNodes()
	if len(p.Device) != nodes {
		return fmt.Errorf("%w: placement covers %d of %d nodes", ErrBadPlacement, len(p.Device), nodes)
	}
	colocDev := make(map[string]DeviceID)
	for i := 0; i < nodes; i++ {
		n, _ := g.Node(graph.NodeID(i))
		d := p.Device[i]
		if _, ok := sys.Device(d); !ok {
			return fmt.Errorf("%w: node %d on unknown device %d", ErrBadPlacement, n.ID, d)
		}
		if !sys.CompatibleDevice(n.Kind, d) {
			return fmt.Errorf("%w: node %d (%v) on incompatible device %d", ErrBadPlacement, n.ID, n.Kind, d)
		}
		if n.Coloc != "" {
			if prev, ok := colocDev[n.Coloc]; ok && prev != d {
				return fmt.Errorf("%w: colocation group %q split across devices %d and %d", ErrBadPlacement, n.Coloc, prev, d)
			}
			colocDev[n.Coloc] = d
		}
	}
	if p.Order != nil {
		seen := make([]bool, nodes)
		covered := 0
		for dev, order := range p.Order {
			for _, id := range order {
				if int(id) < 0 || int(id) >= nodes {
					return fmt.Errorf("%w: order references unknown node %d", ErrBadPlacement, id)
				}
				if p.Device[id] != DeviceID(dev) {
					return fmt.Errorf("%w: order of device %d contains node %d placed on %d", ErrBadPlacement, dev, id, p.Device[id])
				}
				if seen[id] {
					return fmt.Errorf("%w: node %d appears twice in order", ErrBadPlacement, id)
				}
				seen[id] = true
				covered++
			}
		}
		if covered != nodes {
			return fmt.Errorf("%w: order covers %d of %d nodes", ErrBadPlacement, covered, nodes)
		}
	}
	if p.Policy == PolicyPriority {
		if len(p.Priority) != nodes {
			return fmt.Errorf("%w: priority vector covers %d of %d nodes", ErrBadPlacement, len(p.Priority), nodes)
		}
		// NaN compares false both ways, so it leaves no order among the
		// ready ops; ±Inf still order totally.
		for i, v := range p.Priority {
			if math.IsNaN(v) {
				return fmt.Errorf("%w: node %d has a NaN priority", ErrBadPlacement, i)
			}
		}
	}
	return nil
}

// MemoryUsage sums the memory footprint placed on each device.
func (p Plan) MemoryUsage(g *graph.Graph, sys System) map[DeviceID]int64 {
	use := make(map[DeviceID]int64, len(sys.Devices))
	for i := 0; i < min(g.NumNodes(), len(p.Device)); i++ {
		n, _ := g.Node(graph.NodeID(i))
		use[p.Device[i]] += n.Memory
	}
	return use
}

// CheckMemory returns an ErrOOM-wrapped error naming the first device
// whose cumulative memory footprint exceeds its capacity — the paper's
// memory approximation (§3.2.2 "Memory constraints") and the failure
// mode the Expert strategy hits on the large NASNet variants.
func (p Plan) CheckMemory(g *graph.Graph, sys System) error {
	use := make([]int64, len(sys.Devices))
	for i := 0; i < min(g.NumNodes(), len(p.Device)); i++ {
		if d := p.Device[i]; d >= 0 && int(d) < len(use) {
			n, _ := g.Node(graph.NodeID(i))
			use[d] += n.Memory
		}
	}
	for i, d := range sys.Devices {
		if d.Memory > 0 && use[i] > d.Memory {
			return fmt.Errorf("device %s needs %d of %d bytes: %w", d.Name, use[i], d.Memory, ErrOOM)
		}
	}
	return nil
}
