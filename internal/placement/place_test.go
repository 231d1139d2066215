package placement

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/models"
	"pesto/internal/sim"
)

const gpuMem = 16 << 30

func mustEdge(t *testing.T, g *graph.Graph, u, v graph.NodeID, bytes int64) {
	t.Helper()
	if err := g.AddEdge(u, v, bytes); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
}

func gpuNode(name string, cost time.Duration) graph.Node {
	return graph.Node{Name: name, Kind: graph.KindGPU, Cost: cost, Memory: 1 << 20, Layer: -1}
}

// figure2 reproduces the toy DAG of Figure 2(a): five small ops A–E
// feeding two compute-heavy ops F and G. Scheduling F and G early on
// separate GPUs is what the optimal solution of Figure 2(d) does.
func figure2(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(8)
	a := g.AddNode(gpuNode("A", 20*time.Microsecond))
	b := g.AddNode(gpuNode("B", 30*time.Microsecond))
	c := g.AddNode(gpuNode("C", 30*time.Microsecond))
	d := g.AddNode(gpuNode("D", 40*time.Microsecond))
	e := g.AddNode(gpuNode("E", 40*time.Microsecond))
	f := g.AddNode(gpuNode("F", 200*time.Microsecond))
	h := g.AddNode(gpuNode("G", 200*time.Microsecond))
	out := g.AddNode(gpuNode("H", 20*time.Microsecond))
	mustEdge(t, g, a, b, 4<<10)
	mustEdge(t, g, a, c, 4<<10)
	mustEdge(t, g, b, d, 4<<10)
	mustEdge(t, g, c, e, 4<<10)
	mustEdge(t, g, a, f, 4<<10)
	mustEdge(t, g, a, h, 4<<10)
	mustEdge(t, g, d, out, 4<<10)
	mustEdge(t, g, e, out, 4<<10)
	mustEdge(t, g, f, out, 4<<10)
	mustEdge(t, g, h, out, 4<<10)
	return g
}

func place(t *testing.T, g *graph.Graph, sys sim.System, opts Options) *Result {
	t.Helper()
	res, err := Place(context.Background(), g, sys, opts)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	return res
}

func TestPlaceFigure2Toy(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{CoarsenTarget: 8, ScheduleFromILP: true, ILPTimeLimit: 5 * time.Second})

	simRes, err := sim.Run(g, sys, res.Plan)
	if err != nil {
		t.Fatalf("simulate pesto plan: %v", err)
	}

	// Baseline: everything on one GPU.
	single := make([]sim.DeviceID, g.NumNodes())
	for i := range single {
		single[i] = 1
	}
	sr, err := sim.Run(g, sys, sim.Plan{Device: single})
	if err != nil {
		t.Fatalf("single GPU baseline: %v", err)
	}

	if simRes.Makespan > sr.Makespan {
		t.Errorf("pesto (%v) worse than single-GPU (%v)", simRes.Makespan, sr.Makespan)
	}
	// The DAG has two 200µs ops that can run in parallel; two GPUs
	// should yield a clearly parallel schedule.
	if float64(simRes.Makespan) > 0.85*float64(sr.Makespan) {
		t.Errorf("pesto %v not parallel enough vs single GPU %v", simRes.Makespan, sr.Makespan)
	}
	if res.PredictedMakespan <= 0 {
		t.Error("missing predicted makespan")
	}
}

func TestPlaceTinyGraphIsOptimal(t *testing.T) {
	// Two independent equal ops, negligible comm: optimal C_max is one
	// op per GPU. The B&B must prove optimality (Theorem 3.1 regime).
	g := graph.New(2)
	g.AddNode(gpuNode("a", 100*time.Microsecond))
	g.AddNode(gpuNode("b", 100*time.Microsecond))
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{CoarsenTarget: 2, ScheduleFromILP: true})
	if res.ILPStatus != ilp.OptimalStatus {
		t.Fatalf("status = %v, want optimal", res.ILPStatus)
	}
	if res.Plan.Device[0] == res.Plan.Device[1] {
		t.Fatalf("optimal placement must split the two ops, got %v", res.Plan.Device)
	}
	simRes, err := sim.Run(g, sys, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Makespan != 100*time.Microsecond {
		t.Fatalf("makespan = %v, want 100µs", simRes.Makespan)
	}
}

func TestPlaceSerialChainStaysColocated(t *testing.T) {
	// A serial chain with huge tensors must not be split: any cut adds
	// pure communication time.
	g := graph.New(6)
	prev := g.AddNode(gpuNode("n0", 50*time.Microsecond))
	for i := 1; i < 6; i++ {
		cur := g.AddNode(gpuNode("n", 50*time.Microsecond))
		mustEdge(t, g, prev, cur, 64<<20) // ~3ms on NVLink
		prev = cur
	}
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{CoarsenTarget: 6, ScheduleFromILP: true})
	first := res.Plan.Device[0]
	for i, d := range res.Plan.Device {
		if d != first {
			t.Fatalf("node %d split off (%v vs %v): serial chain should stay colocated", i, d, first)
		}
	}
}

func TestPlaceRespectsMemoryCapacity(t *testing.T) {
	// Two 10 GB ops cannot share a 16 GB GPU even though they form a
	// chain (communication would prefer colocation).
	g := graph.New(2)
	a := g.AddNode(graph.Node{Name: "big1", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Memory: 10 << 30})
	b := g.AddNode(graph.Node{Name: "big2", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Memory: 10 << 30})
	mustEdge(t, g, a, b, 1<<20)
	sys := sim.NewSystem(2, 16<<30)
	res := place(t, g, sys, Options{CoarsenTarget: 2, ScheduleFromILP: true})
	if res.Plan.Device[a] == res.Plan.Device[b] {
		t.Fatalf("memory constraint violated: both 10GB ops on device %v", res.Plan.Device[a])
	}
	if _, err := sim.Run(g, sys, res.Plan); err != nil {
		t.Fatalf("plan does not simulate: %v", err)
	}
}

func TestPlaceHonorsColocationGroups(t *testing.T) {
	g := graph.New(4)
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Cost: 50 * time.Microsecond, Coloc: "grp", Memory: 1})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Cost: 50 * time.Microsecond, Coloc: "grp", Memory: 1})
	c := g.AddNode(gpuNode("c", 50*time.Microsecond))
	d := g.AddNode(gpuNode("d", 50*time.Microsecond))
	mustEdge(t, g, a, c, 8)
	mustEdge(t, g, b, d, 8)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{CoarsenTarget: 4, ScheduleFromILP: true})
	if res.Plan.Device[a] != res.Plan.Device[b] {
		t.Fatalf("colocation group split: %v vs %v", res.Plan.Device[a], res.Plan.Device[b])
	}
}

func TestPlaceMixedCPUAndGPU(t *testing.T) {
	g := graph.New(4)
	in := g.AddNode(graph.Node{Name: "input", Kind: graph.KindCPU, Cost: 10 * time.Microsecond})
	k := g.AddNode(graph.Node{Name: "kernel", Kind: graph.KindKernel, Cost: 2 * time.Microsecond})
	op := g.AddNode(gpuNode("matmul", 100*time.Microsecond))
	out := g.AddNode(graph.Node{Name: "summary", Kind: graph.KindCPU, Cost: 5 * time.Microsecond})
	mustEdge(t, g, in, k, 1<<10)
	mustEdge(t, g, k, op, 1<<10)
	mustEdge(t, g, op, out, 1<<10)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{CoarsenTarget: 4, ScheduleFromILP: true})
	if res.Plan.Device[in] != sys.CPUID() || res.Plan.Device[k] != sys.CPUID() || res.Plan.Device[out] != sys.CPUID() {
		t.Fatalf("CPU/kernel ops misplaced: %v", res.Plan.Device)
	}
	if d := res.Plan.Device[op]; d != 1 && d != 2 {
		t.Fatalf("GPU op on device %v", d)
	}
	if _, err := sim.Run(g, sys, res.Plan); err != nil {
		t.Fatalf("simulate: %v", err)
	}
}

func TestPlaceRejectsWrongGPUCount(t *testing.T) {
	g := graph.New(1)
	g.AddNode(gpuNode("a", time.Microsecond))
	for _, n := range []int{1, 3} {
		sys := sim.NewSystem(n, gpuMem)
		if _, err := Place(context.Background(), g, sys, Options{}); !errors.Is(err, ErrUnsupportedSystem) {
			t.Errorf("%d GPUs: err = %v, want ErrUnsupportedSystem", n, err)
		}
	}
}

func TestCongestionConstraintsHelp(t *testing.T) {
	// A graph designed to punish bunched transfers: two chains that
	// each cross GPUs with large tensors. With congestion constraints
	// the ILP staggers or avoids the transfers; without them its
	// predicted makespan is optimistic and the realized schedule is no
	// better.
	g := congestionHeavyGraph(t)
	sys := sim.NewSystem(2, gpuMem)
	with := place(t, g, sys, Options{CoarsenTarget: 10, ScheduleFromILP: true, ILPTimeLimit: 6 * time.Second})
	without := place(t, g, sys, Options{CoarsenTarget: 10, ScheduleFromILP: true, ILPTimeLimit: 6 * time.Second, DisableCongestion: true})
	rw, err := sim.Run(g, sys, with.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rwo, err := sim.Run(g, sys, without.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// The congestion-aware plan must not lose (ties allowed: both may
	// discover the colocated optimum).
	if float64(rw.Makespan) > 1.05*float64(rwo.Makespan) {
		t.Errorf("congestion-aware plan (%v) worse than oblivious plan (%v)", rw.Makespan, rwo.Makespan)
	}
}

func congestionHeavyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(12)
	src := g.AddNode(gpuNode("src", 10*time.Microsecond))
	var sinks []graph.NodeID
	for c := 0; c < 4; c++ {
		a := g.AddNode(gpuNode("a", 300*time.Microsecond))
		b := g.AddNode(gpuNode("b", 300*time.Microsecond))
		mustEdge(t, g, src, a, 1<<10)
		mustEdge(t, g, a, b, 8<<20)
		sinks = append(sinks, b)
	}
	out := g.AddNode(gpuNode("out", 10*time.Microsecond))
	for _, s := range sinks {
		mustEdge(t, g, s, out, 1<<10)
	}
	return g
}

func TestPlacePropertyRandomGraphsProduceValidPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	sys := sim.NewSystem(2, gpuMem)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(gpuNode("op", time.Duration(5+rng.Intn(200))*time.Microsecond))
		}
		for k := 0; k < 2*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u >= v {
				continue
			}
			_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(1+rng.Intn(1<<18)))
		}
		res, err := Place(context.Background(), g, sys, Options{
			CoarsenTarget: 8, ScheduleFromILP: true, ILPTimeLimit: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d: Place: %v", seed, err)
		}
		simRes, err := sim.Run(g, sys, res.Plan)
		if err != nil {
			t.Fatalf("seed %d: simulate: %v", seed, err)
		}
		cp, _, _ := g.CriticalPath()
		if simRes.Makespan < cp {
			t.Fatalf("seed %d: makespan %v below critical path %v", seed, simRes.Makespan, cp)
		}
	}
}

func TestPlacementOnlyModeUsesReadyQueue(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)
	res := place(t, g, sys, Options{CoarsenTarget: 8, ScheduleFromILP: false})
	if res.Plan.Order != nil {
		t.Fatal("placement-only mode must not carry an explicit order")
	}
	if _, err := sim.Run(g, sys, res.Plan); err != nil {
		t.Fatalf("simulate: %v", err)
	}
}

// TestPlaceDeterministicAcrossWorkerCounts is the engine's core
// guarantee: candidate generation and merging never depend on worker
// count or completion order, so the same seed yields byte-identical
// plans at any parallelism. The branch and bound is truncated by a
// node cap (deterministic on every machine) rather than wall clock,
// and the time budget is generous enough that refinement reaches its
// local optimum before the deadline on every run — so each run's
// search sees exactly the same candidates.
func TestPlaceDeterministicAcrossWorkerCounts(t *testing.T) {
	rnnlm := func(t *testing.T) *graph.Graph {
		t.Helper()
		v, err := models.FindVariant("RNNLM-small")
		if err != nil {
			t.Fatalf("FindVariant: %v", err)
		}
		g, err := v.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return g
	}
	cases := []struct {
		name  string
		build func(*testing.T) *graph.Graph
		opts  Options
	}{
		{
			name:  "figure2-toy",
			build: figure2,
			opts:  Options{CoarsenTarget: 8, ScheduleFromILP: true, ILPTimeLimit: 120 * time.Second, ILPMaxNodes: 24, Seed: 7},
		},
		{
			name:  "rnnlm-small",
			build: rnnlm,
			opts: Options{
				CoarsenTarget: 12, ScheduleFromILP: true,
				ILPTimeLimit: 120 * time.Second, ILPMaxNodes: 8, Seed: 7,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			sys := sim.NewSystem(2, gpuMem)
			var ref *Result
			for _, workers := range []int{1, 2, 8} {
				opts := tc.opts
				opts.Parallel = workers
				res := place(t, g, sys, opts)
				if ref == nil {
					ref = res
					continue
				}
				if !reflect.DeepEqual(res.Plan, ref.Plan) {
					t.Errorf("workers=%d: plan differs from workers=1\n got: %+v\nwant: %+v", workers, res.Plan, ref.Plan)
				}
				if res.SimulatedMakespan != ref.SimulatedMakespan {
					t.Errorf("workers=%d: makespan %v != %v", workers, res.SimulatedMakespan, ref.SimulatedMakespan)
				}
			}
		})
	}
}

// TestPlaceReturnsContextError: a cancelled caller gets ctx.Err back
// (wrapped), never a partial plan.
func TestPlaceCancelledContextReturnsError(t *testing.T) {
	g := figure2(t)
	sys := sim.NewSystem(2, gpuMem)

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Place(ctx, g, sys, Options{CoarsenTarget: 8, ILPTimeLimit: 5 * time.Second})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("got partial result %+v alongside cancellation", res)
		}
	})

	t.Run("cancelled-mid-pipeline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		res, err := Place(ctx, g, sys, Options{CoarsenTarget: 8, ILPTimeLimit: 5 * time.Second, Parallel: 2})
		if err == nil {
			// The toy can legitimately finish inside the timeout; only a
			// partial-result-with-error combination would be a bug.
			if res == nil {
				t.Fatal("nil result and nil error")
			}
			return
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if res != nil {
			t.Fatalf("got partial result alongside %v", err)
		}
	})
}
