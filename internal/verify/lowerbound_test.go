package verify

import (
	"testing"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/models"
	"pesto/internal/sim"
)

func TestLowerBoundEmptyGraph(t *testing.T) {
	lb, err := LowerBound(graph.New(0), sim.NewSystem(2, gpuMem))
	if err != nil {
		t.Fatal(err)
	}
	if lb != 0 {
		t.Fatalf("empty graph bound %v, want 0", lb)
	}
}

func TestLowerBoundChainIsCriticalPath(t *testing.T) {
	// A pure chain on identical-speed devices has LP optimum exactly the
	// chain length: the relaxation's precedence constraints sum along it
	// and nothing cheaper is feasible.
	g := graph.New(3)
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Cost: 100 * time.Microsecond})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Cost: 200 * time.Microsecond})
	c := g.AddNode(graph.Node{Name: "c", Kind: graph.KindGPU, Cost: 300 * time.Microsecond})
	if err := g.AddEdge(a, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c, 0); err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(g, sim.NewSystem(2, gpuMem))
	if err != nil {
		t.Fatal(err)
	}
	if want := 600 * time.Microsecond; lb != want {
		t.Fatalf("chain bound %v, want %v", lb, want)
	}
}

func TestLowerBoundAggregateCapacity(t *testing.T) {
	// Eight independent equal ops on two GPUs: the precedence relaxation
	// alone would allow the single-op duration, but aggregate capacity
	// forces total-work/2.
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 100 * time.Microsecond})
	}
	lb, err := LowerBound(g, sim.NewSystem(2, gpuMem))
	if err != nil {
		t.Fatal(err)
	}
	if want := 400 * time.Microsecond; lb != want {
		t.Fatalf("independent-ops bound %v, want %v", lb, want)
	}
}

func TestLowerBoundNoCompatibleDevice(t *testing.T) {
	g := graph.New(1)
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Microsecond})
	sys := sim.NewSystem(2, gpuMem)
	sys = sys.WithFailedDevice(1)
	sys = sys.WithFailedDevice(2)
	if _, err := LowerBound(g, sys); err == nil {
		t.Fatal("expected error with every GPU failed")
	}
}

func TestLowerBoundDeterministic(t *testing.T) {
	g, err := gen.Generate(gen.RandomConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(2, gpuMem)
	a, err := LowerBound(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LowerBound(g, sys)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("bound not deterministic: %v vs %v", a, b)
	}
}

// TestLowerBoundHoldsForBaselinePlans is the bound's soundness test:
// on generated graphs, every baseline plan that verifies must realize a
// makespan at or above the LP relaxation.
func TestLowerBoundHoldsForBaselinePlans(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g, err := gen.Generate(gen.RandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(2, gpuMem)
		lb, err := LowerBound(g, sys)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if lb < 0 {
			t.Fatalf("seed %d: negative bound %v", seed, lb)
		}
		plans := map[string]func() (sim.Plan, error){
			"single-gpu": func() (sim.Plan, error) { return baselines.SingleGPU(g, sys) },
			"heft":       func() (sim.Plan, error) { return baselines.HEFT(g, sys) },
			"baechi": func() (sim.Plan, error) {
				p, _, _, err := baselines.BestBaechi(g, sys)
				return p, err
			},
		}
		for name, mk := range plans {
			plan, err := mk()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			res, err := Check(g, sys, plan)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if res.Makespan < lb {
				t.Fatalf("seed %d %s: makespan %v undercuts lower bound %v", seed, name, res.Makespan, lb)
			}
		}
	}
}

// TestLowerBoundHoldsAtPaperScale extends the soundness test to the
// model zoo, paper-scale variants included: on two GPUs the bound never
// exceeds the verified makespan of the HEFT or the single-GPU plan.
// The bound relaxes memory away, so the GPUs get room for a whole paper
// model: the single-GPU plan then verifies too.
func TestLowerBoundHoldsAtPaperScale(t *testing.T) {
	t.Parallel()
	sys := sim.NewSystem(2, 1<<40)
	for _, v := range append(models.SmallVariants(), models.PaperVariants()...) {
		g, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LowerBound(g, sys)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		plans := map[string]func() (sim.Plan, error){
			"single-gpu": func() (sim.Plan, error) { return baselines.SingleGPU(g, sys) },
			"heft":       func() (sim.Plan, error) { return baselines.HEFT(g, sys) },
		}
		for name, mk := range plans {
			plan, err := mk()
			if err != nil {
				t.Fatalf("%s %s: %v", v.Name, name, err)
			}
			res, err := Check(g, sys, plan)
			if err != nil {
				t.Fatalf("%s %s: %v", v.Name, name, err)
			}
			if res.Makespan < lb {
				t.Fatalf("%s %s: makespan %v undercuts lower bound %v", v.Name, name, res.Makespan, lb)
			}
			t.Logf("%s: bound %v ≤ %s %v", v.Name, lb, name, res.Makespan)
		}
	}
}
