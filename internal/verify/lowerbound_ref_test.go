package verify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/lp"
	"pesto/internal/models"
	"pesto/internal/sim"
)

// refLowerBound is LowerBound's differential twin: the same relaxation
// written out as an (n+1)-variable LP and handed to one of the
// repository's simplex solvers. LowerBound computes its optimum in
// closed form; the twin tests hold the two to the nanosecond.
func refLowerBound(g *graph.Graph, sys sim.System, solve func(*lp.Problem) (lp.Solution, error)) (time.Duration, error) {
	n := g.NumNodes()
	if n == 0 {
		return 0, nil
	}
	nodes := g.Nodes()

	// Per-node best-case durations and compatible-device sets.
	durMin := make([]float64, n)
	compat := make([][]sim.DeviceID, n)
	for _, nd := range nodes {
		best := math.Inf(1)
		for _, d := range sys.Devices {
			if !sys.CompatibleDevice(nd.Kind, d.ID) {
				continue
			}
			compat[nd.ID] = append(compat[nd.ID], d.ID)
			speed := d.Speed
			if speed <= 0 {
				speed = 1
			}
			if dur := math.Round(float64(nd.Cost) / speed); dur < best {
				best = dur
			}
		}
		if len(compat[nd.ID]) == 0 {
			return 0, fmt.Errorf("lower bound: node %d (%v) has no compatible device: %w", nd.ID, nd.Kind, ErrAffinity)
		}
		durMin[nd.ID] = best
	}

	// Variables: s_0..s_{n-1} (start times), C at index n. Minimize C.
	p := lp.NewProblem(n + 1)
	cVar := n
	if err := p.SetObjective(cVar, 1); err != nil {
		return 0, err
	}

	// Precedence with cheapest-possible communication.
	for _, e := range g.Edges() {
		rhs := durMin[e.From] + minComm(sys, compat[e.From], compat[e.To], e.Bytes)
		if err := p.AddConstraint(lp.Constraint{
			Terms: []lp.Term{{Var: int(e.To), Coef: 1}, {Var: int(e.From), Coef: -1}},
			Rel:   lp.GE,
			RHS:   rhs,
		}); err != nil {
			return 0, err
		}
	}
	// Completion: C ≥ s_i + p_i^min.
	for i := 0; i < n; i++ {
		if err := p.AddConstraint(lp.Constraint{
			Terms: []lp.Term{{Var: cVar, Coef: 1}, {Var: i, Coef: -1}},
			Rel:   lp.GE,
			RHS:   durMin[i],
		}); err != nil {
			return 0, err
		}
	}
	// Aggregate capacity per affinity class: any schedule keeps some
	// machine busy for at least the class's best-case work share.
	var gpuWork, cpuWork float64
	for _, nd := range nodes {
		if nd.Kind == graph.KindGPU {
			gpuWork += durMin[nd.ID]
		} else {
			cpuWork += durMin[nd.ID]
		}
	}
	if m := len(sys.GPUs()); m > 0 && gpuWork > 0 {
		if err := p.AddConstraint(lp.Constraint{
			Terms: []lp.Term{{Var: cVar, Coef: 1}},
			Rel:   lp.GE,
			RHS:   gpuWork / float64(m),
		}); err != nil {
			return 0, err
		}
	}
	if cpuWork > 0 {
		if err := p.AddConstraint(lp.Constraint{
			Terms: []lp.Term{{Var: cVar, Coef: 1}},
			Rel:   lp.GE,
			RHS:   cpuWork,
		}); err != nil {
			return 0, err
		}
	}

	sol, err := solve(p)
	if err != nil {
		return 0, fmt.Errorf("lower bound: relaxation: %w", err)
	}
	// Realized makespans are integer nanoseconds, so any true bound t
	// implies makespan ≥ ⌈t⌉. Back the float objective off by a small
	// epsilon before taking the ceiling so simplex rounding noise can
	// only loosen the bound, never overstate it.
	eps := 0.5 + 1e-9*math.Abs(sol.Objective)
	lb := math.Ceil(sol.Objective - eps)
	if lb < 0 {
		lb = 0
	}
	return time.Duration(lb), nil
}

type twinSystem struct {
	name string
	sys  sim.System
}

// twinSystems are the systems the twin tests run every graph on: two
// and four single-host GPUs, and 2×2 GPUs over a datacenter network.
func twinSystems() []twinSystem {
	return []twinSystem{
		{"2gpu", sim.NewSystem(2, gpuMem)},
		{"4gpu", sim.NewSystem(4, gpuMem)},
		{"2x2mh", sim.NewMultiHostSystem(2, 2, gpuMem)},
	}
}

// checkLowerBoundTwin fails t unless LowerBound and refLowerBound
// return the same value and the same error class on (g, sys). The LP is
// feasible on every DAG, so when the revised simplex gives up on it the
// dense tableau solves the same LP instead. No graph of the twin tests
// needs that today, but RNNLM-16-1024's reference LP still does: its
// dual stalls, and phase 1 then calls it infeasible.
func checkLowerBoundTwin(t *testing.T, name string, g *graph.Graph, sys sim.System) {
	t.Helper()
	got, gotErr := LowerBound(g, sys)
	want, wantErr := refLowerBound(g, sys, lp.Solve)
	if errors.Is(wantErr, lp.ErrNoSolution) {
		want, wantErr = refLowerBound(g, sys, lp.SolveDense)
	}
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || errors.Is(gotErr, ErrAffinity) != errors.Is(wantErr, ErrAffinity) {
			t.Fatalf("%s: LowerBound err %v, reference err %v", name, gotErr, wantErr)
		}
		return
	}
	if got != want {
		t.Fatalf("%s: LowerBound %v (%d ns), reference %v (%d ns)", name, got, int64(got), want, int64(want))
	}
}

// TestLowerBoundMatchesReference holds the closed form to the LP it
// replaces on every generator family at four sizes, the sweep's random
// configurations and the small model zoo, each on every twin system.
func TestLowerBoundMatchesReference(t *testing.T) {
	t.Parallel()
	type instance struct {
		name string
		g    *graph.Graph
	}
	var graphs []instance
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, nodes := range []int{8, 16, 48, 96} {
				g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				graphs = append(graphs, instance{fmt.Sprintf("%v/seed%d/%d", fam, seed, nodes), g})
			}
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		g, err := gen.Generate(gen.RandomConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, instance{fmt.Sprintf("random/seed%d", seed), g})
	}
	for _, v := range models.SmallVariants() {
		g, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, instance{v.Name, g})
	}
	pairs := 0
	for _, s := range twinSystems() {
		for _, in := range graphs {
			checkLowerBoundTwin(t, in.name+"@"+s.name, in.g, s.sys)
			pairs++
		}
	}
	t.Logf("%d (graph, system) pairs agree", pairs)
}

// TestPaperReferenceLPsSolve holds the revised simplex alone, with no
// dense fallback, to the closed form on the two-GPU reference LPs of two
// paper variants that it once called infeasible: its cold phase 1 gave
// up on NMT-2-1024 and Transformer-10-8-1024. The cold solve now starts
// in the dual simplex (the LP's only cost is on C), and both must come
// back optimal and equal to LowerBound to the nanosecond.
func TestPaperReferenceLPsSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale reference LPs: skipped in -short")
	}
	t.Parallel()
	want := map[string]bool{"NMT-2-1024": true, "Transformer-10-8-1024": true}
	sys := twinSystems()[0]
	for _, v := range models.PaperVariants() {
		if !want[v.Name] {
			continue
		}
		delete(want, v.Name)
		g, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := refLowerBound(g, sys.sys, lp.Solve)
		if err != nil {
			t.Fatalf("%s@%s: reference LP: %v", v.Name, sys.name, err)
		}
		lb, err := LowerBound(g, sys.sys)
		if err != nil || got != lb {
			t.Fatalf("%s@%s: reference LP %v (%d ns), LowerBound %v (%d ns), err %v", v.Name, sys.name, got, int64(got), lb, int64(lb), err)
		}
	}
	if len(want) > 0 {
		t.Fatalf("variants missing from models.PaperVariants: %v", want)
	}
}

// FuzzLowerBoundMatchesReference rewrites the costs (zero and negative
// included) and edge bytes of a small generated graph from the fuzz
// bytes, optionally fails a device, and holds LowerBound to the LP
// twin: equal values, equal error class.
func FuzzLowerBoundMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), uint8(3), []byte{0, 0, 0, 0})
	f.Add(int64(7), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0})
	f.Add(int64(-5), uint8(2), []byte{})
	f.Add(int64(-217), uint8(149), []byte{5}) // its cold phase 1 once gave up; dense answered
	f.Fuzz(func(t *testing.T, seed int64, failed uint8, raw []byte) {
		fams := gen.Families()
		g, err := gen.Generate(gen.Config{Family: fams[uint64(seed)%uint64(len(fams))], Seed: seed, Nodes: 8})
		if err != nil {
			t.Fatal(err)
		}
		// next draws the following little-endian int32 from raw,
		// cycling, so every cost and byte count is fuzz-controlled.
		off := 0
		next := func() int64 {
			if len(raw) == 0 {
				return 0
			}
			var b [4]byte
			for i := range b {
				b[i] = raw[off%len(raw)]
				off++
			}
			return int64(int32(binary.LittleEndian.Uint32(b[:])))
		}
		for i := 0; i < g.NumNodes(); i++ {
			if err := g.SetCost(graph.NodeID(i), time.Duration(next())); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range g.Edges() {
			if err := g.SetEdgeBytes(e.From, e.To, next()); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range twinSystems() {
			// Device IDs past the system's last are no-ops.
			sys := s.sys.WithFailedDevice(sim.DeviceID(failed % 8))
			if failed >= 128 {
				sys = sys.WithFailedDevice(sim.DeviceID(1 + failed%2))
			}
			checkLowerBoundTwin(t, fmt.Sprintf("seed %d failed %d @%s", seed, failed, s.name), g, sys)
		}
	})
}
