package placement

import (
	"context"
	"math"
	"testing"
	"time"

	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/sim"
)

// solveExact builds the model for g and solves it to optimality with a
// generous budget (graphs here are tiny).
func solveExact(t *testing.T, g *graph.Graph, opts Options) (*model, ilp.Solution) {
	t.Helper()
	sys := sim.NewSystem(2, gpuMem)
	m, err := buildModel(g, sys, opts.withDefaults())
	if err != nil {
		t.Fatalf("buildModel: %v", err)
	}
	sol, err := ilp.Solve(context.Background(), ilp.Problem{LP: m.lp, Binary: m.binary}, ilp.Options{
		TimeLimit: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("ilp.Solve: %v", err)
	}
	if sol.Status != ilp.OptimalStatus {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return m, sol
}

// TestModelXORLinearization: z_k must equal x_i XOR x_j in every
// integral solution.
func TestModelXORLinearization(t *testing.T) {
	g := graph.New(4)
	a := g.AddNode(gpuNode("a", 10*time.Microsecond))
	b := g.AddNode(gpuNode("b", 10*time.Microsecond))
	c := g.AddNode(gpuNode("c", 10*time.Microsecond))
	d := g.AddNode(gpuNode("d", 10*time.Microsecond))
	mustEdge(t, g, a, b, 1<<20)
	mustEdge(t, g, c, d, 1<<20)
	m, sol := solveExact(t, g, Options{})
	for ci, cv := range m.comms {
		if m.zVar[ci] < 0 {
			continue
		}
		xi := sol.X[m.xVar[cv.from]]
		xj := sol.X[m.xVar[cv.to]]
		z := sol.X[m.zVar[ci]]
		want := 0.0
		if (xi > 0.5) != (xj > 0.5) {
			want = 1
		}
		if math.Abs(z-want) > 1e-6 {
			t.Errorf("comm %d: z=%g for x_i=%g x_j=%g", ci, z, xi, xj)
		}
	}
}

// TestModelNonOverlapHolds: two independent equal ops forced onto one
// GPU (via colocation) must not overlap in the ILP schedule.
func TestModelNonOverlapHolds(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Coloc: "grp", Memory: 1})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Coloc: "grp", Memory: 1})
	m, sol := solveExact(t, g, Options{})
	xa, xb := sol.X[m.xVar[a]], sol.X[m.xVar[b]]
	if (xa > 0.5) != (xb > 0.5) {
		t.Fatalf("colocation violated: x_a=%g x_b=%g", xa, xb)
	}
	sa, sb := sol.X[m.sOp[a]], sol.X[m.sOp[b]]
	p := float64(100*time.Microsecond) / float64(m.horizon)
	// One must finish (within the anti-degeneracy perturbation) before
	// the other starts.
	sep := math.Max(sa, sb) - math.Min(sa, sb)
	if sep < p-1e-4 {
		t.Errorf("overlap: S_a=%g S_b=%g p=%g", sa, sb, p)
	}
	// And the optimal C_max is serial execution of both.
	if sol.Objective < 2*p-1e-4 {
		t.Errorf("C_max %g below serial bound %g", sol.Objective, 2*p)
	}
}

// TestModelCongestionSerializesTransfers: two cross-GPU transfers in
// the same direction must not overlap on the link when congestion
// constraints are on.
func TestModelCongestionSerializesTransfers(t *testing.T) {
	// Producers p1, p2 colocated on one GPU; consumers c1, c2 on the
	// other (forced by coloc groups). Transfers share one direction.
	g := graph.New(4)
	p1 := g.AddNode(graph.Node{Name: "p1", Kind: graph.KindGPU, Cost: time.Microsecond, Coloc: "src", Memory: 1})
	p2 := g.AddNode(graph.Node{Name: "p2", Kind: graph.KindGPU, Cost: time.Microsecond, Coloc: "src", Memory: 1})
	c1 := g.AddNode(graph.Node{Name: "c1", Kind: graph.KindGPU, Cost: time.Microsecond, Coloc: "dst", Memory: 1})
	c2 := g.AddNode(graph.Node{Name: "c2", Kind: graph.KindGPU, Cost: time.Microsecond, Coloc: "dst", Memory: 1})
	const bytes = 8 << 20
	mustEdge(t, g, p1, c1, bytes)
	mustEdge(t, g, p2, c2, bytes)
	// Force the split: the two coloc groups must land on different GPUs
	// or there is no transfer at all; add memory pressure to separate
	// them.
	_ = g.SetMemory(p1, 9<<30)
	_ = g.SetMemory(p2, 1<<20)
	_ = g.SetMemory(c1, 9<<30)
	_ = g.SetMemory(c2, 1<<20)

	m, sol := solveExact(t, g, Options{})
	// Identify the GG comm vertices and check: if both transfers are
	// active (z=1) and same direction, their service intervals must not
	// overlap.
	type active struct {
		s, dur float64
		dir    int
	}
	var acts []active
	for ci, cv := range m.comms {
		if m.zVar[ci] < 0 || sol.X[m.zVar[ci]] < 0.5 {
			continue
		}
		dir := 0
		if sol.X[m.xVar[cv.from]] > 0.5 {
			dir = 1
		}
		acts = append(acts, active{
			s:   sol.X[m.sComm[ci]],
			dur: float64(cv.cost) / float64(m.horizon),
			dir: dir,
		})
	}
	for i := 0; i < len(acts); i++ {
		for j := i + 1; j < len(acts); j++ {
			if acts[i].dir != acts[j].dir {
				continue
			}
			aEnd := acts[i].s + acts[i].dur
			bEnd := acts[j].s + acts[j].dur
			if acts[i].s < bEnd-1e-4 && acts[j].s < aEnd-1e-4 {
				t.Errorf("same-direction transfers overlap: [%g,%g] vs [%g,%g]",
					acts[i].s, aEnd, acts[j].s, bEnd)
			}
		}
	}
}

// TestModelCPUNonOverlapHolds: two independent CPU ops share the single
// CPU, so the ILP schedule runs them one after the other.
func TestModelCPUNonOverlapHolds(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindCPU, Cost: 100 * time.Microsecond})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindCPU, Cost: 100 * time.Microsecond})
	m, sol := solveExact(t, g, Options{})
	sa, sb := sol.X[m.sOp[a]], sol.X[m.sOp[b]]
	p := float64(100*time.Microsecond) / float64(m.horizon)
	if sep := math.Abs(sa - sb); sep < p-1e-4 {
		t.Errorf("CPU ops overlap: S_a=%g S_b=%g p=%g", sa, sb, p)
	}
	if sol.Objective < 2*p-1e-4 {
		t.Errorf("C_max %g below serial bound %g", sol.Objective, 2*p)
	}
}

// TestModelHostLinkCongestion: two CPU→GPU transfers share the host link
// of the GPU they feed. Into one GPU they serialize; into different GPUs
// they overlap, and C_max is the parallel bound: the CPU op, one
// transfer, one GPU op.
func TestModelHostLinkCongestion(t *testing.T) {
	const bytes = 8 << 20
	build := func(t *testing.T, sameGPU bool) (*model, ilp.Solution) {
		g := graph.New(3)
		c := g.AddNode(graph.Node{Name: "c", Kind: graph.KindCPU, Cost: time.Microsecond})
		g1 := g.AddNode(gpuNode("g1", time.Microsecond))
		g2 := g.AddNode(gpuNode("g2", time.Microsecond))
		mustEdge(t, g, c, g1, bytes)
		mustEdge(t, g, c, g2, bytes)
		if sameGPU {
			_ = g.SetColoc(g1, "grp")
			_ = g.SetColoc(g2, "grp")
		} else {
			// Two 9 GiB ops cannot share a 16 GiB GPU.
			_ = g.SetMemory(g1, 9<<30)
			_ = g.SetMemory(g2, 9<<30)
		}
		return solveExact(t, g, Options{})
	}
	transfers := func(t *testing.T, m *model, sol ilp.Solution) (s [2]float64, dur float64) {
		k := 0
		for ci, cv := range m.comms {
			if cv.kind == commCG {
				s[k] = sol.X[m.sComm[ci]]
				dur = float64(cv.cost) / float64(m.horizon)
				k++
			}
		}
		if k != 2 {
			t.Fatalf("%d CPU→GPU transfers, want 2", k)
		}
		return s, dur
	}
	t.Run("same GPU", func(t *testing.T) {
		m, sol := build(t, true)
		s, dur := transfers(t, m, sol)
		if sep := math.Abs(s[0] - s[1]); sep < dur-1e-4 {
			t.Errorf("transfers into one GPU overlap: S=%v dur=%g", s, dur)
		}
	})
	t.Run("different GPUs", func(t *testing.T) {
		m, sol := build(t, false)
		if dev := m.assignmentFromX(sol.X); dev[1] == dev[2] {
			t.Fatalf("memory did not split the GPU ops: %v", dev)
		}
		_, dur := transfers(t, m, sol)
		op := float64(time.Microsecond) / float64(m.horizon)
		if want := 2*op + dur; math.Abs(sol.Objective-want) > 1e-6 {
			t.Errorf("C_max %g, want the parallel bound %g", sol.Objective, want)
		}
	})
}

// TestModelPredictionMatchesSimulation: for a tiny graph with all
// constraint pairs materialized, the ILP's C_max must match the
// simulator's makespan for the extracted plan (the §3.2.2 1-1
// correspondence, within the eager-simulation slack).
func TestModelPredictionMatchesSimulation(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res, err := Place(context.Background(), g, sys, Options{
		CoarsenTarget: 32, ILPTimeLimit: 8 * time.Second, ScheduleFromILP: true,
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	r, err := sim.Run(g, sys, res.Plan)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// The realized schedule can beat the prediction (eager execution)
	// but should be in its vicinity when everything is modelled.
	lo, hi := 0.5*float64(res.PredictedMakespan), 1.5*float64(res.PredictedMakespan)
	if float64(r.Makespan) < lo || float64(r.Makespan) > hi {
		t.Errorf("simulated %v far from predicted %v", r.Makespan, res.PredictedMakespan)
	}
}

// TestModelHorizonNormalization: the normalized optimum must be within
// (0, 1] — a serial schedule is always feasible within the horizon.
func TestModelHorizonNormalization(t *testing.T) {
	g := graph.New(3)
	a := g.AddNode(gpuNode("a", 30*time.Microsecond))
	b := g.AddNode(gpuNode("b", 40*time.Microsecond))
	c := g.AddNode(gpuNode("c", 50*time.Microsecond))
	mustEdge(t, g, a, b, 1<<10)
	mustEdge(t, g, b, c, 1<<10)
	_, sol := solveExact(t, g, Options{})
	if sol.Objective <= 0 || sol.Objective > 1+1e-6 {
		t.Errorf("normalized C_max = %g outside (0,1]", sol.Objective)
	}
}

// TestModelHeterogeneousGPUsPreferFast: with one GPU 4x faster and
// meaningful communication, the optimal placement puts the heavy chain
// on the fast GPU.
func TestModelHeterogeneousGPUsPreferFast(t *testing.T) {
	g := graph.New(3)
	a := g.AddNode(gpuNode("a", 100*time.Microsecond))
	b := g.AddNode(gpuNode("b", 100*time.Microsecond))
	c := g.AddNode(gpuNode("c", 100*time.Microsecond))
	mustEdge(t, g, a, b, 8<<20)
	mustEdge(t, g, b, c, 8<<20)
	sys := sim.NewSystem(2, gpuMem)
	sys.Devices[2].Speed = 4 // gpu:1 is 4x faster
	res, err := Place(context.Background(), g, sys, Options{
		CoarsenTarget: 3, ILPTimeLimit: 5 * time.Second, ScheduleFromILP: true,
	})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for _, id := range []graph.NodeID{a, b, c} {
		if res.Plan.Device[id] != 2 {
			t.Fatalf("op %d on %v, want the fast GPU 2 (plan %v)", id, res.Plan.Device[id], res.Plan.Device)
		}
	}
	r, err := sim.Run(g, sys, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// 300µs of compute at 4x speed = 75µs.
	if r.Makespan > 80*time.Microsecond {
		t.Fatalf("makespan %v, want ~75µs on the fast GPU", r.Makespan)
	}
}

// TestModelHierarchicalLinksRaiseCommCost: with a multi-host system,
// the ILP's comm vertices must price inter-host transfers at the slow
// network model.
func TestModelHierarchicalLinksRaiseCommCost(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(gpuNode("a", time.Microsecond))
	b := g.AddNode(gpuNode("b", time.Microsecond))
	mustEdge(t, g, a, b, 8<<20)
	multi := sim.NewMultiHostSystem(2, 1, gpuMem) // 2 hosts x 1 GPU
	m, err := buildModel(g, multi, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	nv := sim.NewSystem(2, gpuMem)
	mNV, err := buildModel(g, nv, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.comms) != 1 || len(mNV.comms) != 1 {
		t.Fatalf("expected one comm vertex each")
	}
	if m.comms[0].cost <= mNV.comms[0].cost {
		t.Fatalf("inter-host transfer (%v) not pricier than NVLink (%v)",
			m.comms[0].cost, mNV.comms[0].cost)
	}
}
