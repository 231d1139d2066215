package placement

import (
	"errors"
	"math"
	"testing"
	"time"

	"pesto/internal/coarsen"
	"pesto/internal/gen"
	"pesto/internal/lp"
	"pesto/internal/sim"
)

// benchRungModel builds the exact model the ilp-exact rung solves for
// the repository's canonical graph: gen.Layered seed=7, 96 nodes,
// coarsened to ilpMaxSize.
func benchRungModel(tb testing.TB) *model {
	tb.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 96})
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{}.withDefaults()
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: ilpMaxSize})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := buildModel(cres.Coarse, sim.NewSystem(2, 0), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkLPRung times a cold solve of the ILP rung's root relaxation
// on both engines. The dense reference takes seconds per solve and is
// skipped in -short mode.
func BenchmarkLPRung(b *testing.B) {
	m := benchRungModel(b)
	for _, solver := range []struct {
		name  string
		solve func(*lp.Problem) (lp.Solution, error)
	}{{"revised", lp.Solve}, {"dense", lp.SolveDense}} {
		b.Run(solver.name, func(b *testing.B) {
			if solver.name == "dense" && testing.Short() {
				b.Skip("dense reference takes seconds per solve")
			}
			for i := 0; i < b.N; i++ {
				if sol, err := solver.solve(m.lp); err != nil || sol.Status != lp.Optimal {
					b.Fatalf("%s: %v (%v)", solver.name, sol.Status, err)
				}
			}
		})
	}
}

// BenchmarkChildResolve times the branch-and-bound child case on the
// same model: clone the root problem, fix one binary that is fractional
// at the root, and re-solve warm from the root basis, which dual simplex
// repairs. One op is one child, cycling over both values of up to 8
// such binaries.
func BenchmarkChildResolve(b *testing.B) {
	m := benchRungModel(b)
	root, err := lp.Solve(m.lp)
	if err != nil {
		b.Fatal(err)
	}
	type fix struct {
		v   int
		val float64
	}
	var fixes []fix
	for _, v := range m.binary {
		if f := root.X[v] - math.Floor(root.X[v]); f > 1e-6 && f < 1-1e-6 && len(fixes) < 16 {
			fixes = append(fixes, fix{v, 0}, fix{v, 1})
		}
	}
	if len(fixes) == 0 {
		b.Fatal("root relaxation is integral; no child to re-solve")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx := fixes[i%len(fixes)]
		child := m.lp.Clone()
		if err := child.SetBounds(fx.v, fx.val, fx.val); err != nil {
			b.Fatal(err)
		}
		if _, err := lp.SolveWarmDeadlineObs(child, root.Basis, time.Time{}, nil); err != nil && !errors.Is(err, lp.ErrNoSolution) {
			b.Fatal(err)
		}
	}
}
