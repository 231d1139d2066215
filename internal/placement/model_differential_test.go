package placement

import (
	"math"
	"testing"

	"pesto/internal/coarsen"
	"pesto/internal/gen"
	"pesto/internal/lp"
	"pesto/internal/sim"
)

// TestDifferentialRootRelaxations runs the revised simplex against the
// dense-tableau reference on the root LP relaxations of a generated
// corpus — the exact models the branch and bound solves — asserting
// objectives agree to 1e-6. Instances stay small enough for the dense
// reference to finish comfortably; the revised engine has no such
// excuse at any size.
func TestDifferentialRootRelaxations(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	sys := sim.NewSystem(2, 0)
	opts := Options{}.withDefaults()
	instances := 0
	for _, fam := range gen.Families() {
		for seed := int64(0); seed < 42; seed++ {
			g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: 12 + int(seed%5)})
			if err != nil {
				t.Fatalf("%v seed %d: %v", fam, seed, err)
			}
			cres, err := coarsen.Coarsen(g, coarsen.Options{Target: ilpMaxSize})
			if err != nil {
				t.Fatalf("%v seed %d: coarsen: %v", fam, seed, err)
			}
			m, err := buildModel(cres.Coarse, sys, opts)
			if err != nil {
				t.Fatalf("%v seed %d: model: %v", fam, seed, err)
			}
			instances++
			rsol, rerr := lp.Solve(m.lp)
			dsol, derr := lp.SolveDense(m.lp)
			if dsol.Status != lp.Optimal {
				t.Fatalf("%v seed %d: dense reference %v (%v)", fam, seed, dsol.Status, derr)
			}
			if rsol.Status != lp.Optimal {
				t.Fatalf("%v seed %d: revised %v (%v), dense optimal", fam, seed, rsol.Status, rerr)
			}
			if math.Abs(rsol.Objective-dsol.Objective) > 1e-6 {
				t.Fatalf("%v seed %d: root relaxation mismatch: revised %.12g dense %.12g",
					fam, seed, rsol.Objective, dsol.Objective)
			}
		}
	}
	if instances < 200 {
		t.Fatalf("only %d corpus instances, want >= 200", instances)
	}
}

// TestGroupModelMatchesPerOp cross-checks the two ILP formulations on
// colocation-heavy graphs: the group-level model (one placement binary
// per colocation group) and the PerOpModel ablation (per-op binaries
// tied by equality rows) must agree on the root relaxation — the group
// model is a presolved reformulation, not a different problem.
// Congestion is disabled because the top-K comm selection differs
// between the two (same-group comm vertices occupy per-op slots), and
// objectives are compared denormalized: each model normalizes by its
// own horizon, which for the per-op model includes same-group comm
// costs the group model never materializes.
func TestGroupModelMatchesPerOp(t *testing.T) {
	sys := sim.NewSystem(2, 0)
	for seed := int64(0); seed < 12; seed++ {
		g, err := gen.Generate(gen.Config{Family: gen.ColocHeavy, Seed: seed, Nodes: 18})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := coarsen.Coarsen(g, coarsen.Options{Target: 48})
		if err != nil {
			t.Fatal(err)
		}
		grpOpts := Options{}.withDefaults()
		grpOpts.DisableCongestion = true
		opOpts := grpOpts
		opOpts.PerOpModel = true
		gm, err := buildModel(cres.Coarse, sys, grpOpts)
		if err != nil {
			t.Fatal(err)
		}
		om, err := buildModel(cres.Coarse, sys, opOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(gm.xGroups) > len(om.xGroups) {
			t.Fatalf("seed %d: group model has more placement vars (%d) than per-op (%d)",
				seed, len(gm.xGroups), len(om.xGroups))
		}
		if gm.lp.NumVars() >= om.lp.NumVars() && len(gm.xGroups) < len(om.xGroups) {
			t.Fatalf("seed %d: grouping merged binaries (%d < %d) but did not shrink the model (%d vs %d vars)",
				seed, len(gm.xGroups), len(om.xGroups), gm.lp.NumVars(), om.lp.NumVars())
		}
		gsol, gerr := lp.Solve(gm.lp)
		osol, oerr := lp.Solve(om.lp)
		if gerr != nil || oerr != nil || gsol.Status != lp.Optimal || osol.Status != lp.Optimal {
			t.Fatalf("seed %d: group %v/%v per-op %v/%v", seed, gsol.Status, gerr, osol.Status, oerr)
		}
		gObj := gsol.Objective * float64(gm.horizon)
		oObj := osol.Objective * float64(om.horizon)
		denom := math.Max(math.Abs(oObj), 1)
		if math.Abs(gObj-oObj)/denom > 1e-6 {
			t.Fatalf("seed %d: group relaxation %.12g != per-op %.12g (denormalized ns)",
				seed, gObj, oObj)
		}
	}
}
