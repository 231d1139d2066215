// Package verify is the differential-verification harness: an
// independent checker that a produced placement/schedule is actually
// feasible, and a set of oracles every engine in this repository is
// held to (see lowerbound.go and the sweep tests).
//
// The checker deliberately re-derives every invariant from the graph
// and system instead of trusting the planner's own bookkeeping —
// precedence order, colocation-group integrity, device affinity,
// memory capacity, link FCFS discipline and makespan accounting are
// each re-proved from first principles against the simulator's realized
// timeline. A planner bug therefore cannot hide behind the code that
// produced it, the property Mayer et al. ("It's the Critical Path!")
// and Tarnawski et al. rely on when validating schedulers against
// critical-path and LP bounds on randomized graph families.
//
// Every invariant class rejects with its own sentinel error, all
// wrapping ErrInvariant, so tests can assert not only that a corrupted
// plan is rejected but that it is rejected for the right reason.
package verify

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

// ErrInvariant is the base error every invariant-class sentinel wraps:
// errors.Is(err, ErrInvariant) matches any verification failure.
var ErrInvariant = errors.New("plan invariant violated")

// Invariant-class sentinels. Each wraps ErrInvariant; match with
// errors.Is to identify the class a plan was rejected for.
var (
	// ErrAffinity marks placement-coverage and device-affinity
	// violations: missing assignments, unknown or failed devices,
	// operations on devices of the wrong kind (§3.2.1's O_C/O_G/O_K).
	ErrAffinity = fmt.Errorf("device affinity: %w", ErrInvariant)
	// ErrColocation marks colocation groups split across devices.
	ErrColocation = fmt.Errorf("colocation integrity: %w", ErrInvariant)
	// ErrMemory marks placements whose cumulative footprint exceeds a
	// device's capacity (§3.2.2's memory constraints).
	ErrMemory = fmt.Errorf("memory capacity: %w", ErrInvariant)
	// ErrSchedule marks malformed or violated explicit per-device
	// orders: duplicates, wrong-device entries, missing coverage, or a
	// realized execution that contradicts the strict order.
	ErrSchedule = fmt.Errorf("schedule order: %w", ErrInvariant)
	// ErrPrecedence marks realized timelines in which an operation
	// starts before a predecessor's output could have reached it.
	ErrPrecedence = fmt.Errorf("precedence order: %w", ErrInvariant)
	// ErrDeviceOverlap marks two operations executing concurrently on
	// one device (no preemption anywhere in the model).
	ErrDeviceOverlap = fmt.Errorf("device double-booking: %w", ErrInvariant)
	// ErrLinkOverlap marks directional-link double-booking or a
	// violation of the FCFS service discipline (§3.2.1).
	ErrLinkOverlap = fmt.Errorf("link double-booking: %w", ErrInvariant)
	// ErrAccounting marks internally inconsistent results: makespan not
	// equal to the last finish, per-device busy time not matching the
	// realized windows, missing or mispriced transfers.
	ErrAccounting = fmt.Errorf("makespan accounting: %w", ErrInvariant)
)

// CheckPlan verifies the static invariants of a plan against a graph
// and system: placement coverage and device affinity (ErrAffinity),
// colocation-group integrity (ErrColocation), memory capacity
// (ErrMemory) and explicit-order well-formedness (ErrSchedule). It is
// an independent, classifying re-implementation of sim.Plan.Validate —
// the two must agree on accept/reject, which the fuzz targets enforce.
func CheckPlan(g *graph.Graph, sys sim.System, plan sim.Plan) error {
	n := g.NumNodes()
	if len(plan.Device) != n {
		return fmt.Errorf("%w: placement covers %d of %d nodes", ErrAffinity, len(plan.Device), n)
	}
	colocDev := make(map[string]sim.DeviceID)
	for _, nd := range g.Nodes() {
		d := plan.Device[nd.ID]
		dev, ok := sys.Device(d)
		if !ok {
			return fmt.Errorf("%w: node %d on unknown device %d", ErrAffinity, nd.ID, d)
		}
		if dev.Failed {
			return fmt.Errorf("%w: node %d on failed device %s", ErrAffinity, nd.ID, dev.Name)
		}
		if !sys.CompatibleDevice(nd.Kind, d) {
			return fmt.Errorf("%w: node %d (%v) on %v device %s", ErrAffinity, nd.ID, nd.Kind, dev.Kind, dev.Name)
		}
		if nd.Coloc != "" {
			if prev, ok := colocDev[nd.Coloc]; ok && prev != d {
				return fmt.Errorf("%w: group %q split across devices %d and %d", ErrColocation, nd.Coloc, prev, d)
			}
			colocDev[nd.Coloc] = d
		}
	}
	if err := checkMemory(g, sys, plan); err != nil {
		return err
	}
	if err := checkOrderShape(g, plan); err != nil {
		return err
	}
	if plan.Policy == sim.PolicyPriority {
		if len(plan.Priority) != n {
			return fmt.Errorf("%w: priority vector covers %d of %d nodes", ErrSchedule, len(plan.Priority), n)
		}
		for i, p := range plan.Priority {
			if math.IsNaN(p) {
				return fmt.Errorf("%w: node %d has a NaN priority, which orders no ready queue: %w", ErrSchedule, i, sim.ErrBadPlacement)
			}
		}
	}
	return nil
}

// checkMemory re-derives per-device footprints from the graph.
func checkMemory(g *graph.Graph, sys sim.System, plan sim.Plan) error {
	use := make(map[sim.DeviceID]int64, len(sys.Devices))
	for _, nd := range g.Nodes() {
		use[plan.Device[nd.ID]] += nd.Memory
	}
	for _, d := range sys.Devices {
		if d.Memory > 0 && use[d.ID] > d.Memory {
			return fmt.Errorf("%w: device %s needs %d of %d bytes", ErrMemory, d.Name, use[d.ID], d.Memory)
		}
	}
	return nil
}

// checkOrderShape verifies that an explicit order, when present, is a
// partition of the node set consistent with the placement.
func checkOrderShape(g *graph.Graph, plan sim.Plan) error {
	if plan.Order == nil {
		return nil
	}
	n := g.NumNodes()
	seen := make([]bool, n)
	covered := 0
	for dev, order := range plan.Order {
		for _, id := range order {
			if int(id) < 0 || int(id) >= n {
				return fmt.Errorf("%w: order references unknown node %d", ErrSchedule, id)
			}
			if plan.Device[id] != sim.DeviceID(dev) {
				return fmt.Errorf("%w: order of device %d lists node %d placed on %d", ErrSchedule, dev, id, plan.Device[id])
			}
			if seen[id] {
				return fmt.Errorf("%w: node %d appears twice in the order", ErrSchedule, id)
			}
			seen[id] = true
			covered++
		}
	}
	if covered != n {
		return fmt.Errorf("%w: order covers %d of %d nodes", ErrSchedule, covered, n)
	}
	return nil
}

// CheckExecution verifies the dynamic invariants of a realized training
// step: every operation executed with its modelled duration, precedence
// held through communication (ErrPrecedence), no device ran two
// operations at once (ErrDeviceOverlap), no directional link served two
// transfers at once or out of FCFS order (ErrLinkOverlap), explicit
// orders were honored (ErrSchedule), and the result's own accounting —
// makespan, per-device busy time, per-link busy time, transfer pricing
// — is consistent with the realized windows (ErrAccounting).
//
// res must come from an uninjected simulation of exactly (g, sys,
// plan); fault-injected runs intentionally violate the pricing
// invariants.
func CheckExecution(g *graph.Graph, sys sim.System, plan sim.Plan, res sim.Result) error {
	n := g.NumNodes()
	if len(res.Start) != n || len(res.Finish) != n {
		return fmt.Errorf("%w: result covers %d/%d of %d nodes", ErrAccounting, len(res.Start), len(res.Finish), n)
	}
	nodes := g.Nodes()
	for _, nd := range nodes {
		s, f := res.Start[nd.ID], res.Finish[nd.ID]
		if s < 0 || f < s {
			return fmt.Errorf("%w: node %d has window [%v, %v]", ErrAccounting, nd.ID, s, f)
		}
		want := opDuration(sys, plan.Device[nd.ID], nd.Cost)
		if f-s != want {
			return fmt.Errorf("%w: node %d ran for %v, modelled duration %v", ErrAccounting, nd.ID, f-s, want)
		}
	}

	transfers, err := indexTransfers(g, plan, res)
	if err != nil {
		return err
	}
	if err := checkPrecedence(g, plan, res, transfers); err != nil {
		return err
	}
	if err := checkDeviceSerialization(g, sys, plan, res); err != nil {
		return err
	}
	if err := checkLinks(sys, res); err != nil {
		return err
	}
	if err := checkStrictOrder(plan, res); err != nil {
		return err
	}
	return checkAccounting(g, sys, plan, res)
}

// opDuration is the modelled execution time of an operation on a
// device — the same rounding the simulator applies.
func opDuration(sys sim.System, dev sim.DeviceID, cost time.Duration) time.Duration {
	d, _ := sys.Device(dev)
	speed := d.Speed
	if speed <= 0 {
		speed = 1
	}
	return time.Duration(math.Round(float64(cost) / speed))
}

// indexTransfers maps each cross-device edge to its transfer event and
// rejects results whose transfer list does not match the plan's
// cross-device edge set exactly.
func indexTransfers(g *graph.Graph, plan sim.Plan, res sim.Result) (map[[2]graph.NodeID]sim.TransferEvent, error) {
	idx := make(map[[2]graph.NodeID]sim.TransferEvent, len(res.Transfers))
	for _, tr := range res.Transfers {
		key := [2]graph.NodeID{tr.Edge.From, tr.Edge.To}
		if _, dup := idx[key]; dup {
			return nil, fmt.Errorf("%w: edge (%d,%d) transferred twice", ErrAccounting, tr.Edge.From, tr.Edge.To)
		}
		idx[key] = tr
	}
	want := 0
	for _, e := range g.Edges() {
		if plan.Device[e.From] == plan.Device[e.To] {
			continue
		}
		want++
		tr, ok := idx[[2]graph.NodeID{e.From, e.To}]
		if !ok {
			return nil, fmt.Errorf("%w: cross-device edge (%d,%d) has no transfer event", ErrAccounting, e.From, e.To)
		}
		if tr.From != plan.Device[e.From] || tr.To != plan.Device[e.To] {
			return nil, fmt.Errorf("%w: edge (%d,%d) transferred %d→%d, placed %d→%d",
				ErrAccounting, e.From, e.To, tr.From, tr.To, plan.Device[e.From], plan.Device[e.To])
		}
	}
	if want != len(res.Transfers) {
		return nil, fmt.Errorf("%w: %d transfer events for %d cross-device edges", ErrAccounting, len(res.Transfers), want)
	}
	return idx, nil
}

// checkPrecedence proves every edge held: a consumer started only after
// the producer finished and, across devices, after the tensor's FCFS
// transfer completed.
func checkPrecedence(g *graph.Graph, plan sim.Plan, res sim.Result, transfers map[[2]graph.NodeID]sim.TransferEvent) error {
	for _, e := range g.Edges() {
		pf := res.Finish[e.From]
		cs := res.Start[e.To]
		if plan.Device[e.From] == plan.Device[e.To] {
			if cs < pf {
				return fmt.Errorf("%w: node %d started at %v before colocated predecessor %d finished at %v",
					ErrPrecedence, e.To, cs, e.From, pf)
			}
			continue
		}
		tr := transfers[[2]graph.NodeID{e.From, e.To}]
		if tr.Enqueue < pf {
			return fmt.Errorf("%w: edge (%d,%d) enqueued at %v before producer finished at %v",
				ErrPrecedence, e.From, e.To, tr.Enqueue, pf)
		}
		if tr.Start < tr.Enqueue || tr.Finish < tr.Start {
			return fmt.Errorf("%w: edge (%d,%d) transfer window enqueue=%v start=%v finish=%v",
				ErrPrecedence, e.From, e.To, tr.Enqueue, tr.Start, tr.Finish)
		}
		if cs < tr.Finish {
			return fmt.Errorf("%w: node %d started at %v before its input from %d arrived at %v",
				ErrPrecedence, e.To, cs, e.From, tr.Finish)
		}
	}
	return nil
}

// checkDeviceSerialization proves no device ran two operations at once.
func checkDeviceSerialization(g *graph.Graph, sys sim.System, plan sim.Plan, res sim.Result) error {
	byDev := make([][]graph.NodeID, len(sys.Devices))
	for i := 0; i < g.NumNodes(); i++ {
		d := plan.Device[i]
		if int(d) >= 0 && int(d) < len(byDev) {
			byDev[d] = append(byDev[d], graph.NodeID(i))
		}
	}
	for d, ids := range byDev {
		sort.Slice(ids, func(a, b int) bool {
			if res.Start[ids[a]] != res.Start[ids[b]] {
				return res.Start[ids[a]] < res.Start[ids[b]]
			}
			return res.Finish[ids[a]] < res.Finish[ids[b]]
		})
		for i := 1; i < len(ids); i++ {
			prev, cur := ids[i-1], ids[i]
			if res.Start[cur] < res.Finish[prev] {
				return fmt.Errorf("%w: device %d ran node %d [%v,%v] overlapping node %d [%v,%v]",
					ErrDeviceOverlap, d, prev, res.Start[prev], res.Finish[prev], cur, res.Start[cur], res.Finish[cur])
			}
		}
	}
	return nil
}

// checkLinks proves each directional link served transfers one at a
// time in FCFS order (skipped on congestion-free systems, where links
// are modelled as infinitely parallel).
func checkLinks(sys sim.System, res sim.Result) error {
	if sys.CongestionFree {
		return nil
	}
	byLink := make(map[[2]sim.DeviceID][]sim.TransferEvent)
	for _, tr := range res.Transfers {
		lk := [2]sim.DeviceID{tr.From, tr.To}
		byLink[lk] = append(byLink[lk], tr)
	}
	for lk, trs := range byLink {
		// No double-booking: service windows must not overlap.
		sort.Slice(trs, func(a, b int) bool {
			if trs[a].Start != trs[b].Start {
				return trs[a].Start < trs[b].Start
			}
			return trs[a].Finish < trs[b].Finish
		})
		for i := 1; i < len(trs); i++ {
			if trs[i].Start < trs[i-1].Finish {
				return fmt.Errorf("%w: link %d→%d served (%d,%d) [%v,%v] overlapping (%d,%d) [%v,%v]",
					ErrLinkOverlap, lk[0], lk[1],
					trs[i-1].Edge.From, trs[i-1].Edge.To, trs[i-1].Start, trs[i-1].Finish,
					trs[i].Edge.From, trs[i].Edge.To, trs[i].Start, trs[i].Finish)
			}
		}
		// FCFS: a transfer enqueued strictly earlier must not start
		// later than one enqueued strictly after it.
		byEnq := append([]sim.TransferEvent(nil), trs...)
		sort.SliceStable(byEnq, func(a, b int) bool { return byEnq[a].Enqueue < byEnq[b].Enqueue })
		for i := 1; i < len(byEnq); i++ {
			a, b := byEnq[i-1], byEnq[i]
			if a.Enqueue < b.Enqueue && a.Start > b.Start {
				return fmt.Errorf("%w: link %d→%d served (%d,%d) enqueued %v after (%d,%d) enqueued %v (FCFS violated)",
					ErrLinkOverlap, lk[0], lk[1],
					b.Edge.From, b.Edge.To, b.Enqueue, a.Edge.From, a.Edge.To, a.Enqueue)
			}
		}
	}
	return nil
}

// checkStrictOrder proves a strictly scheduled device realized its
// operations in exactly the planned sequence.
func checkStrictOrder(plan sim.Plan, res sim.Result) error {
	if plan.Order == nil {
		return nil
	}
	for dev, order := range plan.Order {
		for i := 1; i < len(order); i++ {
			prev, cur := order[i-1], order[i]
			if res.Start[cur] < res.Start[prev] {
				return fmt.Errorf("%w: device %d realized node %d at %v before its predecessor-in-order %d at %v",
					ErrSchedule, dev, cur, res.Start[cur], prev, res.Start[prev])
			}
		}
	}
	return nil
}

// checkAccounting proves the result's summary statistics agree with
// its own realized windows.
func checkAccounting(g *graph.Graph, sys sim.System, plan sim.Plan, res sim.Result) error {
	var last time.Duration
	busy := make([]time.Duration, len(sys.Devices))
	for i := 0; i < g.NumNodes(); i++ {
		if res.Finish[i] > last {
			last = res.Finish[i]
		}
		d := plan.Device[i]
		if int(d) >= 0 && int(d) < len(busy) {
			busy[d] += res.Finish[i] - res.Start[i]
		}
	}
	if res.Makespan != last {
		return fmt.Errorf("%w: makespan %v but last operation finished at %v", ErrAccounting, res.Makespan, last)
	}
	for d := range busy {
		var got time.Duration
		if d < len(res.DeviceBusy) {
			got = res.DeviceBusy[d]
		}
		if got != busy[d] {
			return fmt.Errorf("%w: device %d busy %v, realized windows sum to %v", ErrAccounting, d, got, busy[d])
		}
	}
	linkBusy := make(map[[2]sim.DeviceID]time.Duration, len(res.LinkBusy))
	for _, tr := range res.Transfers {
		if tr.Finish > res.Makespan {
			return fmt.Errorf("%w: transfer (%d,%d) finished at %v after makespan %v",
				ErrAccounting, tr.Edge.From, tr.Edge.To, tr.Finish, res.Makespan)
		}
		want := sys.TransferTime(tr.From, tr.To, tr.Edge.Bytes)
		if tr.Finish-tr.Start != want {
			return fmt.Errorf("%w: transfer (%d,%d) served in %v, modelled time %v",
				ErrAccounting, tr.Edge.From, tr.Edge.To, tr.Finish-tr.Start, want)
		}
		linkBusy[[2]sim.DeviceID{tr.From, tr.To}] += tr.Finish - tr.Start
	}
	for lk, want := range linkBusy {
		if res.LinkBusy[lk] != want {
			return fmt.Errorf("%w: link %d→%d busy %v, realized transfers sum to %v",
				ErrAccounting, lk[0], lk[1], res.LinkBusy[lk], want)
		}
	}
	for lk, got := range res.LinkBusy {
		if linkBusy[lk] != got {
			return fmt.Errorf("%w: link %d→%d reports busy %v with no matching transfers",
				ErrAccounting, lk[0], lk[1], got)
		}
	}
	return nil
}

// Check runs the full verification of a plan: the static invariants,
// one uninjected simulation, and the dynamic invariants of its realized
// timeline. It returns the simulation result so callers can reuse the
// makespan without a second run.
func Check(g *graph.Graph, sys sim.System, plan sim.Plan) (sim.Result, error) {
	if err := CheckPlan(g, sys, plan); err != nil {
		return sim.Result{}, err
	}
	res, err := sim.Run(g, sys, plan)
	if err != nil {
		return sim.Result{}, fmt.Errorf("%w: plan does not simulate: %v", ErrInvariant, err)
	}
	if err := CheckExecution(g, sys, plan, res); err != nil {
		return res, err
	}
	return res, nil
}
