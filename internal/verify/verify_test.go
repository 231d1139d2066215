package verify

import (
	"errors"
	"math"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

const gpuMem = int64(16) << 30

// scenario builds a deterministic graph, system and verified plan whose
// corruptions the negative tests classify: a CPU input feeding two
// colocated GPU ops on gpu:0 and two more on gpu:1, strictly ordered.
func scenario(t *testing.T) (*graph.Graph, sim.System, sim.Plan, sim.Result) {
	t.Helper()
	g := graph.New(5)
	in := g.AddNode(graph.Node{Name: "in", Kind: graph.KindCPU, Cost: 10 * time.Microsecond})
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Memory: 1 << 20, Coloc: "grp"})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Cost: 80 * time.Microsecond, Memory: 1 << 20, Coloc: "grp"})
	c := g.AddNode(graph.Node{Name: "c", Kind: graph.KindGPU, Cost: 60 * time.Microsecond, Memory: 1 << 20})
	d := g.AddNode(graph.Node{Name: "d", Kind: graph.KindGPU, Cost: 40 * time.Microsecond, Memory: 1 << 20})
	// e is deliberately independent of the other GPU ops (fed by the
	// input only) and has the same duration as d, so order and overlap
	// corruptions can swap or collide their windows without tripping
	// the duration or precedence checks first.
	e := g.AddNode(graph.Node{Name: "e", Kind: graph.KindGPU, Cost: 40 * time.Microsecond, Memory: 1 << 20})
	for _, ed := range [][2]graph.NodeID{{in, a}, {a, b}, {a, c}, {b, d}, {c, d}, {in, e}} {
		if err := g.AddEdge(ed[0], ed[1], 4<<20); err != nil {
			t.Fatal(err)
		}
	}
	sys := sim.NewSystem(2, gpuMem)
	plan := sim.Plan{
		Device: []sim.DeviceID{0, 1, 1, 2, 2, 2},
		Order: [][]graph.NodeID{
			{in},
			{a, b},
			{c, d, e},
		},
	}
	res, err := Check(g, sys, plan)
	if err != nil {
		t.Fatalf("scenario plan must verify: %v", err)
	}
	return g, sys, plan, res
}

func TestCheckAcceptsVerifiedScenario(t *testing.T) {
	g, sys, plan, res := scenario(t)
	if err := CheckPlan(g, sys, plan); err != nil {
		t.Fatal(err)
	}
	if err := CheckExecution(g, sys, plan, res); err != nil {
		t.Fatal(err)
	}
	// The independent checker and the simulator's own Validate must
	// agree on acceptance.
	if err := plan.Validate(g, sys); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedPlansRejectedWithDistinctErrors is the negative gallery:
// one deliberate corruption per invariant class, each rejected with its
// own sentinel (and with the base ErrInvariant).
func TestCorruptedPlansRejectedWithDistinctErrors(t *testing.T) {
	cases := []struct {
		name    string
		want    error
		corrupt func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result)
		static  bool // corruption detected by CheckPlan rather than CheckExecution
	}{
		{
			name:   "affinity/gpu-op-on-cpu",
			want:   ErrAffinity,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Device[1] = 0 // GPU op onto the CPU
				plan.Order = nil
			},
		},
		{
			name:   "affinity/unknown-device",
			want:   ErrAffinity,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Device[1] = 99
				plan.Order = nil
			},
		},
		{
			name:   "affinity/failed-device",
			want:   ErrAffinity,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				*sys = sys.WithFailedDevice(1)
			},
		},
		{
			name:   "affinity/short-coverage",
			want:   ErrAffinity,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Device = plan.Device[:3]
				plan.Order = nil
			},
		},
		{
			name:   "colocation/group-split",
			want:   ErrColocation,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Device[2] = 2 // b leaves a's device, splitting "grp"
				plan.Order = nil
			},
		},
		{
			name:   "memory/over-capacity",
			want:   ErrMemory,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				shrunk := sys.Clone()
				shrunk.Devices[1].Memory = 1 << 10
				*sys = shrunk
			},
		},
		{
			name:   "schedule/duplicate-entry",
			want:   ErrSchedule,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Order[1] = []graph.NodeID{1, 1}
			},
		},
		{
			name:   "schedule/wrong-device-entry",
			want:   ErrSchedule,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Order[1] = []graph.NodeID{1, 2, 3} // node 3 lives on device 2
			},
		},
		{
			name:   "schedule/missing-coverage",
			want:   ErrSchedule,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Order[2] = []graph.NodeID{3}
			},
		},
		{
			name:   "schedule/nan-priority",
			want:   ErrSchedule,
			static: true,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				plan.Order = nil
				plan.Policy = sim.PolicyPriority
				plan.Priority = make([]float64, g.NumNodes())
				plan.Priority[2] = math.NaN()
			},
		},
		{
			name: "schedule/realized-order-contradicts-plan",
			want: ErrSchedule,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				// d and e run on device 2 in that order with equal
				// durations and independent inputs: swapping their
				// realized windows contradicts only the strict order.
				res.Start[4], res.Start[5] = res.Start[5], res.Start[4]
				res.Finish[4], res.Finish[5] = res.Finish[5], res.Finish[4]
			},
		},
		{
			name: "precedence/start-before-input-arrives",
			want: ErrPrecedence,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				// Node d (cross-device consumer of c) starts at time zero.
				shift := res.Start[4]
				res.Start[4] = 0
				res.Finish[4] -= shift
				res.Makespan = maxFinish(res)
				rebalanceBusy(sys, plan, res)
			},
		},
		{
			name: "device-overlap/two-ops-at-once",
			want: ErrDeviceOverlap,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				// Run e concurrently with d on device 2: identical
				// window. e's only input arrived long before d started,
				// so precedence still holds and the overlap is the first
				// violated invariant (serialization is checked before
				// strict order).
				res.Start[5] = res.Start[4]
				res.Finish[5] = res.Finish[4]
				res.Makespan = maxFinish(res)
			},
		},
		{
			name: "link-overlap/double-booked-link",
			want: ErrLinkOverlap,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				// Link 1→2 carries a→c and then b→d, with b→d enqueued
				// while a→c is still in service. Start b→d at its
				// enqueue instant instead of waiting for the link: the
				// window stays sane and the consumer still starts after
				// the (now earlier) finish, so only the link discipline
				// is violated.
				overlapSameLink(t, res)
			},
		},
		{
			name: "accounting/makespan-misreported",
			want: ErrAccounting,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				res.Makespan += time.Microsecond
			},
		},
		{
			name: "accounting/device-busy-misreported",
			want: ErrAccounting,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				res.DeviceBusy[1] += time.Microsecond
			},
		},
		{
			name: "accounting/transfer-mispriced",
			want: ErrAccounting,
			corrupt: func(t *testing.T, g *graph.Graph, sys *sim.System, plan *sim.Plan, res *sim.Result) {
				// A transfer served faster than the link model allows.
				tr := &res.Transfers[0]
				tr.Finish -= time.Microsecond
				res.LinkBusy[[2]sim.DeviceID{tr.From, tr.To}] -= time.Microsecond
				// Keep the consumer legal: it already starts at or after
				// the original (later) finish.
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, sys, plan, res := scenario(t)
			tc.corrupt(t, g, &sys, &plan, &res)
			var err error
			if tc.static {
				err = CheckPlan(g, sys, plan)
			} else {
				err = CheckExecution(g, sys, plan, res)
			}
			if err == nil {
				t.Fatalf("corruption accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("rejected as %v, want class %v", err, tc.want)
			}
			if !errors.Is(err, ErrInvariant) {
				t.Fatalf("error %v does not wrap ErrInvariant", err)
			}
			// The class sentinels must stay distinct: the error matches
			// exactly one of them.
			classes := []error{ErrAffinity, ErrColocation, ErrMemory, ErrSchedule, ErrPrecedence, ErrDeviceOverlap, ErrLinkOverlap, ErrAccounting}
			matched := 0
			for _, cl := range classes {
				if errors.Is(err, cl) {
					matched++
				}
			}
			if matched != 1 {
				t.Fatalf("error %v matches %d invariant classes, want exactly 1", err, matched)
			}
		})
	}
}

// maxFinish recomputes the last finish over all operations.
func maxFinish(res *sim.Result) time.Duration {
	var m time.Duration
	for _, f := range res.Finish {
		if f > m {
			m = f
		}
	}
	return m
}

// rebalanceBusy recomputes DeviceBusy from the (forged) windows so a
// timing corruption doesn't trip the accounting check first.
func rebalanceBusy(sys *sim.System, plan *sim.Plan, res *sim.Result) {
	for d := range res.DeviceBusy {
		res.DeviceBusy[d] = 0
	}
	for i := range res.Start {
		res.DeviceBusy[plan.Device[i]] += res.Finish[i] - res.Start[i]
	}
}

// overlapSameLink finds a transfer that was enqueued while an earlier
// one still occupied the same directional link, and forges it to start
// at its enqueue instant. The window stays internally sane (start ≥
// enqueue, modelled duration preserved) and the consumer still starts
// after the new finish, so only the link discipline is violated.
func overlapSameLink(t *testing.T, res *sim.Result) {
	t.Helper()
	byLink := map[[2]sim.DeviceID][]int{}
	for i, tr := range res.Transfers {
		lk := [2]sim.DeviceID{tr.From, tr.To}
		byLink[lk] = append(byLink[lk], i)
	}
	for _, idxs := range byLink {
		for _, ia := range idxs {
			for _, ib := range idxs {
				a, b := &res.Transfers[ia], &res.Transfers[ib]
				if b.Enqueue <= a.Start || b.Enqueue >= a.Finish || b.Start < a.Finish {
					continue
				}
				dur := b.Finish - b.Start
				b.Start = b.Enqueue
				b.Finish = b.Start + dur
				return
			}
		}
	}
	t.Skip("scenario produced no queued transfer to overlap")
}

func TestCheckAgreesWithPlanValidateOnGeneratedGraphs(t *testing.T) {
	// CheckPlan is an independent re-implementation of Plan.Validate
	// plus memory; the two must agree on accept/reject for structurally
	// random plans.
	for seed := int64(0); seed < 50; seed++ {
		cfg := gen.RandomConfig(seed)
		g, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(2, gpuMem)
		plan := sim.Plan{Device: make([]sim.DeviceID, g.NumNodes()), Policy: sim.PolicyFIFO}
		for _, nd := range g.Nodes() {
			if nd.Kind == graph.KindGPU {
				plan.Device[nd.ID] = sim.DeviceID(1 + seed%2)
			}
		}
		vErr := plan.Validate(g, sys)
		mErr := plan.CheckMemory(g, sys)
		cErr := CheckPlan(g, sys, plan)
		if (vErr == nil && mErr == nil) != (cErr == nil) {
			t.Fatalf("seed %d: Validate=%v CheckMemory=%v but CheckPlan=%v", seed, vErr, mErr, cErr)
		}
	}
}
