package sim

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pesto/internal/graph"
)

const gpuMem = 16 << 30

func mustEdge(t *testing.T, g *graph.Graph, u, v graph.NodeID, bytes int64) {
	t.Helper()
	if err := g.AddEdge(u, v, bytes); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
}

func gpuNode(cost time.Duration) graph.Node {
	return graph.Node{Name: "op", Kind: graph.KindGPU, Cost: cost, Memory: 1 << 20, Layer: -1}
}

func TestChainOnOneGPU(t *testing.T) {
	g := graph.New(3)
	a := g.AddNode(gpuNode(10 * time.Microsecond))
	b := g.AddNode(gpuNode(20 * time.Microsecond))
	c := g.AddNode(gpuNode(30 * time.Microsecond))
	mustEdge(t, g, a, b, 1024)
	mustEdge(t, g, b, c, 1024)
	sys := NewSystem(2, gpuMem)
	plan := Plan{Device: []DeviceID{1, 1, 1}}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Makespan != 60*time.Microsecond {
		t.Fatalf("makespan = %v, want 60µs (no transfer cost on-device)", res.Makespan)
	}
	if len(res.Transfers) != 0 {
		t.Fatalf("on-device edges produced %d transfers", len(res.Transfers))
	}
	if res.DeviceBusy[1] != 60*time.Microsecond {
		t.Fatalf("busy = %v", res.DeviceBusy[1])
	}
	if u := res.Utilization(1); u != 1 {
		t.Fatalf("utilization = %g, want 1", u)
	}
}

func TestCrossDeviceTransferAddsLatency(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(gpuNode(10 * time.Microsecond))
	b := g.AddNode(gpuNode(10 * time.Microsecond))
	const bytes = 1 << 20
	mustEdge(t, g, a, b, bytes)
	sys := NewSystem(2, gpuMem)
	plan := Plan{Device: []DeviceID{1, 2}}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tt := sys.TransferTime(1, 2, bytes)
	want := 10*time.Microsecond + tt + 10*time.Microsecond
	if res.Makespan != want {
		t.Fatalf("makespan = %v, want %v", res.Makespan, want)
	}
	if len(res.Transfers) != 1 {
		t.Fatalf("transfers = %d, want 1", len(res.Transfers))
	}
	tr := res.Transfers[0]
	if tr.From != 1 || tr.To != 2 || tr.Queued() != 0 {
		t.Fatalf("unexpected transfer %+v", tr)
	}
}

func TestFCFSLinkCongestion(t *testing.T) {
	// Two producers on GPU0 finish back to back; both send to GPU1.
	// The second transfer must queue behind the first (§3.2.1 FCFS).
	g := graph.New(4)
	p1 := g.AddNode(gpuNode(10 * time.Microsecond))
	p2 := g.AddNode(gpuNode(10 * time.Microsecond))
	c1 := g.AddNode(gpuNode(time.Microsecond))
	c2 := g.AddNode(gpuNode(time.Microsecond))
	const bytes = 4 << 20
	mustEdge(t, g, p1, c1, bytes)
	mustEdge(t, g, p2, c2, bytes)
	sys := NewSystem(2, gpuMem)
	plan := Plan{Device: []DeviceID{1, 1, 2, 2}}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Transfers) != 2 {
		t.Fatalf("transfers = %d, want 2", len(res.Transfers))
	}
	first, second := res.Transfers[0], res.Transfers[1]
	if second.Start < first.Finish {
		t.Fatalf("link not FCFS-serialized: second starts %v before first finishes %v", second.Start, first.Finish)
	}
	if second.Queued() <= 0 {
		t.Fatalf("second transfer should have queued, got %v", second.Queued())
	}
	if res.MaxQueueing() != second.Queued() {
		t.Fatalf("MaxQueueing mismatch")
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	// GPU0→GPU1 and GPU1→GPU0 are distinct one-way links.
	g := graph.New(4)
	a := g.AddNode(gpuNode(10 * time.Microsecond))
	b := g.AddNode(gpuNode(time.Microsecond))
	c := g.AddNode(gpuNode(10 * time.Microsecond))
	d := g.AddNode(gpuNode(time.Microsecond))
	const bytes = 4 << 20
	mustEdge(t, g, a, b, bytes) // GPU1 -> GPU2
	mustEdge(t, g, c, d, bytes) // GPU2 -> GPU1
	sys := NewSystem(2, gpuMem)
	plan := Plan{Device: []DeviceID{1, 2, 2, 1}}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, tr := range res.Transfers {
		if tr.Queued() != 0 {
			t.Fatalf("opposite-direction transfer queued: %+v", tr)
		}
	}
}

func TestStrictOrderIsHonored(t *testing.T) {
	// Two independent ops on one GPU; the order forces the long one
	// first even though FIFO would pick the other (lower ID, same ready
	// time).
	g := graph.New(2)
	short := g.AddNode(gpuNode(1 * time.Microsecond))
	long := g.AddNode(gpuNode(50 * time.Microsecond))
	sys := NewSystem(1, gpuMem)
	plan := Plan{
		Device: []DeviceID{1, 1},
		Order:  [][]graph.NodeID{nil, {long, short}},
	}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Start[long] != 0 || res.Start[short] != 50*time.Microsecond {
		t.Fatalf("order not honored: start(long)=%v start(short)=%v", res.Start[long], res.Start[short])
	}
}

func TestInvalidOrderDeadlocksWithError(t *testing.T) {
	// a -> b on the same device but ordered b first: head-of-line
	// blocking must be detected as a deadlock, not an infinite loop.
	g := graph.New(2)
	a := g.AddNode(gpuNode(time.Microsecond))
	b := g.AddNode(gpuNode(time.Microsecond))
	mustEdge(t, g, a, b, 8)
	sys := NewSystem(1, gpuMem)
	plan := Plan{Device: []DeviceID{1, 1}, Order: [][]graph.NodeID{nil, {b, a}}}
	if _, err := Run(g, sys, plan); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestPriorityPolicy(t *testing.T) {
	g := graph.New(2)
	lo := g.AddNode(gpuNode(time.Microsecond))
	hi := g.AddNode(gpuNode(time.Microsecond))
	sys := NewSystem(1, gpuMem)
	plan := Plan{
		Device:   []DeviceID{1, 1},
		Policy:   PolicyPriority,
		Priority: []float64{1, 10},
	}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Start[hi] != 0 {
		t.Fatalf("high-priority op started at %v", res.Start[hi])
	}
	if res.Start[lo] != time.Microsecond {
		t.Fatalf("low-priority op started at %v", res.Start[lo])
	}
}

// TestPriorityValidation rejects NaN priorities, which order no ready
// queue, and keeps ±Inf and signed zeros: -0 ties with +0 and the lower
// node ID goes first.
func TestPriorityValidation(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(gpuNode(time.Microsecond))
	}
	sys := NewSystem(1, gpuMem)
	plan := Plan{Device: []DeviceID{1, 1, 1}, Policy: PolicyPriority, Priority: []float64{1, math.NaN(), 2}}
	if err := plan.Validate(g, sys); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("Validate NaN priority: %v, want ErrBadPlacement", err)
	}
	if _, err := Run(g, sys, plan); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("Run NaN priority: %v, want ErrBadPlacement", err)
	}
	if _, err := NewScorer(g, sys).Makespan(plan); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("Makespan NaN priority: %v, want ErrBadPlacement", err)
	}
	plan.Priority = []float64{math.Copysign(0, -1), math.Inf(-1), 0}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run ±Inf/±0 priorities: %v", err)
	}
	if res.Start[0] != 0 || res.Start[2] != time.Microsecond || res.Start[1] != 2*time.Microsecond {
		t.Fatalf("starts %v, want node 0 (-0, lower ID), then node 2 (+0), then node 1 (-Inf)", res.Start)
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(20)
	for i := 0; i < 20; i++ {
		g.AddNode(gpuNode(time.Duration(1+rng.Intn(50)) * time.Microsecond))
	}
	for i := 0; i < 15; i++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u >= v {
			continue
		}
		_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1024)
	}
	sys := NewSystem(2, gpuMem)
	dev := make([]DeviceID, 20)
	for i := range dev {
		dev[i] = DeviceID(1 + i%2)
	}
	planA := Plan{Device: dev, Policy: PolicyRandom, Seed: 42}
	r1, err := Run(g, sys, planA)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := Run(g, sys, planA)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("same seed, different makespans: %v vs %v", r1.Makespan, r2.Makespan)
	}
}

func TestOOMDetected(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Microsecond, Memory: 10 << 30})
	b := g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Microsecond, Memory: 10 << 30})
	mustEdge(t, g, a, b, 8)
	sys := NewSystem(2, 16<<30)
	// Both 10 GB ops on one 16 GB GPU: OOM.
	if _, err := Run(g, sys, Plan{Device: []DeviceID{1, 1}}); !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
	// Split across GPUs: fits.
	if _, err := Run(g, sys, Plan{Device: []DeviceID{1, 2}}); err != nil {
		t.Fatalf("split placement: %v", err)
	}
}

func TestPlacementValidation(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{Kind: graph.KindCPU, Cost: time.Microsecond})
	g.AddNode(gpuNode(time.Microsecond))
	sys := NewSystem(1, gpuMem)
	cases := []Plan{
		{Device: []DeviceID{0}},               // wrong length
		{Device: []DeviceID{1, 1}},            // CPU op on GPU
		{Device: []DeviceID{0, 0}},            // GPU op on CPU
		{Device: []DeviceID{0, DeviceID(99)}}, // unknown device
	}
	for i, p := range cases {
		if _, err := Run(g, sys, p); !errors.Is(err, ErrBadPlacement) {
			t.Errorf("case %d: err = %v, want ErrBadPlacement", i, err)
		}
	}
}

func TestColocValidation(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 1, Coloc: "grp"})
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 1, Coloc: "grp"})
	sys := NewSystem(2, gpuMem)
	if _, err := Run(g, sys, Plan{Device: []DeviceID{1, 2}}); !errors.Is(err, ErrBadPlacement) {
		t.Fatalf("split coloc group: err = %v, want ErrBadPlacement", err)
	}
}

func TestKernelOpsRunOnCPU(t *testing.T) {
	g := graph.New(2)
	k := g.AddNode(graph.Node{Kind: graph.KindKernel, Cost: 5 * time.Microsecond})
	op := g.AddNode(gpuNode(10 * time.Microsecond))
	mustEdge(t, g, k, op, 256)
	sys := NewSystem(1, gpuMem)
	plan := Plan{Device: []DeviceID{0, 1}}
	res, err := Run(g, sys, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DeviceBusy[0] != 5*time.Microsecond {
		t.Fatalf("kernel op not on CPU: busy=%v", res.DeviceBusy[0])
	}
	if len(res.Transfers) != 1 {
		t.Fatalf("CPU→GPU transfer missing")
	}
}

func TestComputeSpeedScaling(t *testing.T) {
	g := graph.New(1)
	g.AddNode(gpuNode(100 * time.Microsecond))
	sys := NewSystem(1, gpuMem)
	fast := sys.WithComputeSpeed(4)
	r1, err := Run(g, sys, Plan{Device: []DeviceID{1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, fast, Plan{Device: []DeviceID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan*4 != r1.Makespan {
		t.Fatalf("4x speed: %v vs %v", r2.Makespan, r1.Makespan)
	}
}

func TestCommSpeedScaling(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(gpuNode(time.Microsecond))
	b := g.AddNode(gpuNode(time.Microsecond))
	mustEdge(t, g, a, b, 8<<20)
	sys := NewSystem(2, gpuMem)
	slow := sys.WithCommSpeed(0.1)
	r1, err := Run(g, sys, Plan{Device: []DeviceID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, slow, Plan{Device: []DeviceID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan <= r1.Makespan {
		t.Fatalf("slower interconnect should increase makespan: %v vs %v", r2.Makespan, r1.Makespan)
	}
}

// TestPropertySimulatorInvariants: on random DAGs with random valid
// placements, (a) makespan >= critical path (at unit speed), (b) every
// node starts after all predecessors' data arrives, (c) device busy time
// <= makespan, (d) no two ops overlap on one device.
func TestPropertySimulatorInvariants(t *testing.T) {
	sys := NewSystem(2, gpuMem)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(gpuNode(time.Duration(1+rng.Intn(200)) * time.Microsecond))
		}
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u >= v {
				continue
			}
			_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(rng.Intn(1<<18)))
		}
		dev := make([]DeviceID, n)
		for i := range dev {
			dev[i] = DeviceID(1 + rng.Intn(2))
		}
		res, err := Run(g, sys, Plan{Device: dev, Policy: PolicyFIFO})
		if err != nil {
			return false
		}
		cp, _, err := g.CriticalPath()
		if err != nil || res.Makespan < cp {
			return false
		}
		// Precedence with transfer times.
		for _, e := range g.Edges() {
			arrive := res.Finish[e.From]
			if dev[e.From] != dev[e.To] {
				arrive += sys.TransferTime(dev[e.From], dev[e.To], e.Bytes)
			}
			if res.Start[e.To] < arrive {
				return false
			}
		}
		// Non-overlap per device.
		type win struct{ s, f time.Duration }
		byDev := make(map[DeviceID][]win)
		for i := 0; i < n; i++ {
			id := graph.NodeID(i)
			byDev[dev[i]] = append(byDev[dev[i]], win{res.Start[id], res.Finish[id]})
		}
		for d, ws := range byDev {
			if res.DeviceBusy[d] > res.Makespan {
				return false
			}
			for i := range ws {
				for j := i + 1; j < len(ws); j++ {
					a, b := ws[i], ws[j]
					if a.s < b.f && b.s < a.f {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCongestionFreeLinksDoNotQueue(t *testing.T) {
	// Two simultaneous same-direction transfers: the FCFS system
	// queues the second; the congestion-free belief does not.
	g := graph.New(4)
	p1 := g.AddNode(gpuNode(10 * time.Microsecond))
	p2 := g.AddNode(gpuNode(10 * time.Microsecond))
	c1 := g.AddNode(gpuNode(time.Microsecond))
	c2 := g.AddNode(gpuNode(time.Microsecond))
	const bytes = 4 << 20
	mustEdge(t, g, p1, c1, bytes)
	mustEdge(t, g, p2, c2, bytes)
	plan := Plan{Device: []DeviceID{1, 1, 2, 2}}

	real := NewSystem(2, gpuMem)
	rr, err := Run(g, real, plan)
	if err != nil {
		t.Fatal(err)
	}
	blind := real
	blind.CongestionFree = true
	br, err := Run(g, blind, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rr.MaxQueueing() <= 0 {
		t.Fatal("real system should queue")
	}
	if br.MaxQueueing() != 0 {
		t.Fatalf("congestion-free system queued: %v", br.MaxQueueing())
	}
	if br.Makespan >= rr.Makespan {
		t.Fatalf("congestion-free makespan %v not below real %v", br.Makespan, rr.Makespan)
	}
}

func TestSpeedScalingPreservesCongestionFree(t *testing.T) {
	s := NewSystem(2, gpuMem)
	s.CongestionFree = true
	if !s.WithComputeSpeed(2).CongestionFree || !s.WithCommSpeed(2).CongestionFree {
		t.Fatal("With*Speed dropped the CongestionFree flag")
	}
}

func TestMultiHostLinkOverrides(t *testing.T) {
	sys := NewMultiHostSystem(2, 2, gpuMem) // gpus 1,2 on host0; 3,4 on host1
	const b = 8 << 20
	intra := sys.TransferTime(1, 2, b)
	inter := sys.TransferTime(1, 3, b)
	if inter <= intra {
		t.Fatalf("inter-host %v should exceed intra-host %v", inter, intra)
	}
	// Overrides survive speed scaling; 2x comm speed halves (approx)
	// inter-host times too.
	fast := sys.WithCommSpeed(2)
	if got := fast.TransferTime(1, 3, b); got >= inter {
		t.Fatalf("scaled inter-host %v not faster than %v", got, inter)
	}
	// Simulation across hosts works end to end.
	g := graph.New(2)
	a := g.AddNode(gpuNode(time.Microsecond))
	c := g.AddNode(gpuNode(time.Microsecond))
	mustEdge(t, g, a, c, b)
	res, err := Run(g, sys, Plan{Device: []DeviceID{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < inter {
		t.Fatalf("makespan %v below the inter-host transfer %v", res.Makespan, inter)
	}
}

func TestHeterogeneousDeviceSpeeds(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(gpuNode(100 * time.Microsecond))
	b := g.AddNode(gpuNode(100 * time.Microsecond))
	sys := NewSystem(2, gpuMem)
	sys.Devices[2].Speed = 2
	res, err := Run(g, sys, Plan{Device: []DeviceID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish[a] != 100*time.Microsecond || res.Finish[b] != 50*time.Microsecond {
		t.Fatalf("finish times %v %v, want 100µs and 50µs", res.Finish[a], res.Finish[b])
	}
}

func TestPlanCloneIsDeep(t *testing.T) {
	p := Plan{
		Device:   []DeviceID{1, 2, 1},
		Order:    [][]graph.NodeID{nil, {0, 2}, {1}},
		Policy:   PolicyPriority,
		Priority: []float64{3, 2, 1},
		Seed:     7,
	}
	c := p.Clone()
	c.Device[0] = 2
	c.Order[1][0] = 1
	c.Priority[0] = 99
	if p.Device[0] != 1 || p.Order[1][0] != 0 || p.Priority[0] != 3 {
		t.Fatalf("Clone shares backing storage with original: %+v", p)
	}
	if c.Policy != p.Policy || c.Seed != p.Seed {
		t.Fatalf("Clone dropped scalar fields: %+v", c)
	}
	if p.Order[0] != nil || c.Order[0] != nil {
		t.Fatal("nil inner order must stay nil")
	}
}

func TestSystemCloneIsIndependent(t *testing.T) {
	sys := NewMultiHostSystem(2, 2, gpuMem)
	c := sys.Clone()
	c.Devices[1].Speed = 99
	for k := range c.LinkOverrides {
		m := c.LinkOverrides[k]
		m.Beta1 *= 100
		c.LinkOverrides[k] = m
		break
	}
	if sys.Devices[1].Speed == 99 {
		t.Fatal("Clone shares the Devices slice")
	}
	for k, m := range sys.LinkOverrides {
		if c.LinkOverrides[k].Beta1 != m.Beta1 {
			// exactly one key was perturbed in the clone; the original
			// must be untouched
			if m.Beta1 == c.LinkOverrides[k].Beta1 {
				t.Fatal("Clone shares the LinkOverrides map")
			}
		}
	}
}

// TestRunIsReentrant runs many simulations of the same graph, system
// and plan concurrently and checks they all agree with a sequential
// run — the property the placement engine relies on to evaluate
// candidates in parallel (run it under -race to audit sharing).
func TestRunIsReentrant(t *testing.T) {
	g := graph.New(8)
	var prev graph.NodeID = -1
	for i := 0; i < 8; i++ {
		id := g.AddNode(gpuNode(time.Duration(10+i) * time.Microsecond))
		if prev >= 0 {
			mustEdge(t, g, prev, id, 1<<16)
		}
		prev = id
	}
	sys := NewSystem(2, gpuMem)
	plan := Plan{Device: []DeviceID{1, 1, 2, 2, 1, 1, 2, 2}, Policy: PolicyFIFO}
	want, err := Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]time.Duration, 16)
	errs := make([]error, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Run(g, sys, plan)
			got[i], errs[i] = r.Makespan, err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got[i] != want.Makespan {
			t.Fatalf("concurrent run %d: makespan %v != sequential %v", i, got[i], want.Makespan)
		}
	}
}
