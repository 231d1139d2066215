package verify

import (
	"errors"
	"math"
	"testing"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

// FuzzCheckPlanAgreesWithValidate generates a graph from the fuzzed
// seed, derives an arbitrary (often infeasible) placement from the fuzz
// bytes, and cross-checks the independent CheckPlan against the
// simulator's own Plan.Validate + CheckMemory: neither may panic, and
// they must agree on accept/reject.
func FuzzCheckPlanAgreesWithValidate(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 1, 2})
	f.Add(int64(9), []byte{0})
	f.Add(int64(-3), []byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(int64(5), []byte{3, 16, 1, 15})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		g, err := gen.Generate(gen.RandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(2, 64<<20) // tight memory: OOM rejections reachable
		plan := sim.Plan{Device: make([]sim.DeviceID, g.NumNodes())}
		for i := range plan.Device {
			var b byte
			if len(raw) > 0 {
				b = raw[i%len(raw)]
			}
			// Bias toward valid devices so accepts are reachable too.
			plan.Device[i] = sim.DeviceID(b % 4)
			if nd, ok := g.Node(graph.NodeID(i)); ok && nd.Kind == graph.KindGPU && b%5 != 0 {
				plan.Device[i] = sim.DeviceID(1 + b%2)
			}
		}
		if len(raw) > 0 && raw[0]%3 == 0 {
			// Priority schedules, NaN entries included.
			plan.Policy = sim.PolicyPriority
			plan.Priority = make([]float64, g.NumNodes())
			for i := range plan.Priority {
				switch b := raw[(i+1)%len(raw)]; {
				case b%17 == 16:
					plan.Priority[i] = math.NaN()
				case b%17 == 15:
					plan.Priority[i] = math.Inf(int(b%2)*2 - 1)
				default:
					plan.Priority[i] = float64(b % 4)
				}
			}
		}
		vErr := plan.Validate(g, sys)
		mErr := plan.CheckMemory(g, sys)
		cErr := CheckPlan(g, sys, plan)
		if (vErr == nil && mErr == nil) != (cErr == nil) {
			t.Fatalf("seed %d: Validate=%v CheckMemory=%v CheckPlan=%v", seed, vErr, mErr, cErr)
		}
		if cErr != nil && !errors.Is(cErr, ErrInvariant) {
			t.Fatalf("seed %d: rejection %v does not wrap ErrInvariant", seed, cErr)
		}
	})
}

// FuzzVerifiedSimulationPasses is the harness's self-consistency
// oracle: any plan the simulator accepts must produce a result the
// independent execution checker certifies, and its makespan must not
// undercut the LP lower bound.
func FuzzVerifiedSimulationPasses(f *testing.F) {
	f.Add(int64(0), uint8(0))
	f.Add(int64(17), uint8(1))
	f.Add(int64(-99), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, split uint8) {
		g, err := gen.Generate(gen.RandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(2, gpuMem)
		// Deterministic two-way split of the GPU ops, coloc-respecting
		// via group representatives.
		plan := sim.Plan{Device: make([]sim.DeviceID, g.NumNodes())}
		grpDev := map[string]sim.DeviceID{}
		for _, nd := range g.Nodes() {
			if nd.Kind != graph.KindGPU {
				continue
			}
			d := sim.DeviceID(1 + (int(nd.ID)+int(split))%2)
			if nd.Coloc != "" {
				if prev, ok := grpDev[nd.Coloc]; ok {
					d = prev
				} else {
					grpDev[nd.Coloc] = d
				}
			}
			plan.Device[nd.ID] = d
		}
		res, err := Check(g, sys, plan)
		if err != nil {
			t.Fatalf("seed %d split %d: verified-feasible plan rejected: %v", seed, split, err)
		}
		lb, err := LowerBound(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < lb {
			t.Fatalf("seed %d split %d: makespan %v undercuts lower bound %v", seed, split, res.Makespan, lb)
		}
	})
}
