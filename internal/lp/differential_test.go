package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomLP builds a seeded random instance for differential testing.
// All variables get finite boxes so instances are never unbounded (the
// unbounded path has its own directed tests); degenerate structure is
// injected deliberately: duplicated rows, zero objective entries and
// right-hand sides that make several bases optimal.
func randomLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(7)
	m := 1 + rng.Intn(10)
	p := NewProblem(n)
	for v := 0; v < n; v++ {
		// Zero objective on ~1/3 of the variables (degeneracy fuel).
		if rng.Intn(3) > 0 {
			_ = p.SetObjective(v, math.Round((rng.Float64()*8-4)*4)/4)
		}
		lo := 0.0
		if rng.Intn(4) == 0 {
			lo = -1 - rng.Float64()*2
		}
		_ = p.SetBounds(v, lo, lo+1+rng.Float64()*4)
	}
	rel := func() Rel { return Rel(1 + rng.Intn(3)) }
	var prev Constraint
	for i := 0; i < m; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			// Exact duplicate of the previous row: a degenerate basis.
			_ = p.AddConstraint(prev)
			continue
		}
		nt := 1 + rng.Intn(n)
		seen := make(map[int]bool, nt)
		var terms []Term
		for len(terms) < nt {
			v := rng.Intn(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			terms = append(terms, Term{Var: v, Coef: math.Round((rng.Float64()*8 - 4))})
		}
		c := Constraint{Terms: terms, Rel: rel(), RHS: math.Round((rng.Float64()*12 - 4))}
		_ = p.AddConstraint(c)
		prev = c
	}
	return p
}

// TestDifferentialRevisedVsDense runs the revised simplex against the
// dense-tableau reference on a seeded corpus, asserting the two agree
// on feasibility and, when optimal, on the objective to 1e-6. The
// corpus mixes feasible, degenerate and infeasible instances.
func TestDifferentialRevisedVsDense(t *testing.T) {
	const instances = 250
	rng := rand.New(rand.NewSource(61))
	feasible, infeasible := 0, 0
	for i := 0; i < instances; i++ {
		p := randomLP(rng)
		rsol, _ := Solve(p)
		dsol, _ := SolveDense(p)
		switch dsol.Status {
		case Optimal:
			feasible++
			if rsol.Status != Optimal {
				t.Fatalf("instance %d: dense optimal (%g), revised %v", i, dsol.Objective, rsol.Status)
			}
			if math.Abs(rsol.Objective-dsol.Objective) > 1e-6 {
				t.Fatalf("instance %d: objective mismatch: revised %.12g dense %.12g",
					i, rsol.Objective, dsol.Objective)
			}
		case Infeasible:
			infeasible++
			if rsol.Status != Infeasible {
				t.Fatalf("instance %d: dense infeasible, revised %v (obj %g)", i, rsol.Status, rsol.Objective)
			}
		default:
			t.Fatalf("instance %d: dense reference returned %v", i, dsol.Status)
		}
	}
	// The corpus must actually exercise both outcomes, or the test is
	// weaker than it claims.
	if feasible < 50 || infeasible < 20 {
		t.Fatalf("corpus too lopsided: %d feasible, %d infeasible of %d", feasible, infeasible, instances)
	}
}

// TestBealeCycling is Beale's classic degenerate LP, which cycles
// forever under pure Dantzig pricing with naive tie-breaking. The
// solver must terminate (stall detection hands pricing to Bland's
// rule) at the known optimum of -1/20.
func TestBealeCycling(t *testing.T) {
	p := NewProblem(4)
	_ = p.SetObjective(0, -0.75)
	_ = p.SetObjective(1, 150)
	_ = p.SetObjective(2, -0.02)
	_ = p.SetObjective(3, 6)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, Rel: LE, RHS: 0})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, Rel: LE, RHS: 0})
	_ = p.AddConstraint(Constraint{Terms: []Term{{2, 1}}, Rel: LE, RHS: 1})
	for name, solve := range map[string]func(*Problem) (Solution, error){
		"revised": Solve,
		"dense":   SolveDense,
	} {
		sol, err := solve(p)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("%s: status=%v err=%v, want optimal (anti-cycling failed?)", name, sol.Status, err)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
			t.Fatalf("%s: objective %g, want -0.05", name, sol.Objective)
		}
	}
}

// pivotCap mirrors the solver's own iteration budget; no random
// instance may exceed it (termination safety net for the fuzzer).
func pivotCap(p *Problem) int {
	cap := 2000 + 50*(p.NumConstraints()+p.NumVars()+p.NumConstraints())
	if cap > 60000 {
		cap = 60000
	}
	return cap
}

// FuzzRevisedSimplex derives small LPs from fuzz bytes and checks the
// revised solver terminates within its pivot cap and agrees with the
// dense reference on feasibility and objective. Seeds 11, 55 and 61 are
// optimal and seed 29 infeasible LPs whose slack basis is dual feasible
// and primal infeasible, so every run holds the cold solve's dual
// simplex start to the reference.
func FuzzRevisedSimplex(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, -3, 1 << 40, 11, 29, 55, 61} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		rsol, _ := Solve(p)
		if rsol.Iters > pivotCap(p) {
			t.Fatalf("seed %d: %d pivots exceeds cap %d", seed, rsol.Iters, pivotCap(p))
		}
		dsol, _ := SolveDense(p)
		if dsol.Status == Optimal {
			if rsol.Status != Optimal {
				t.Fatalf("seed %d: dense optimal, revised %v", seed, rsol.Status)
			}
			if math.Abs(rsol.Objective-dsol.Objective) > 1e-6 {
				t.Fatalf("seed %d: objectives diverge: revised %.12g dense %.12g", seed, rsol.Objective, dsol.Objective)
			}
		}
		if dsol.Status == Infeasible && rsol.Status != Infeasible {
			t.Fatalf("seed %d: dense infeasible, revised %v", seed, rsol.Status)
		}
	})
}

// FuzzWarmResolve is the branch-and-bound child case under fuzzing:
// solve a small random LP, tighten a random subset of its bounds at
// random cut points, fix each column the input's mask names at a point of
// its box (lo = hi), and re-solve the child warm from the parent basis
// and cold. An optimal child is branched the same way again, and the
// grandchild re-solved warm from the child's basis: the ratio test skips
// fixed columns, so the child's dual pivots can leave a fixed column's
// reduced cost at the wrong sign, as they do in a B&B node's basis.
// Every re-solve from an optimal basis must be a warm hit, warm and cold
// must report the same status, optimal objectives must agree within
// 1e-6·max(1,|obj|), and the warm X must satisfy every bound and
// constraint. The instances are small, so the dual simplex reaches its
// terminal checks, and their refactorizations, quickly — well under
// stallBland pivots, which only a cycle reaches. Seeds 805, 880, 4919
// and 5057 are children whose dual once cycled on bound flips until
// stallBland. A cut rounded onto the opposite bound fixes a column even
// with an empty mask, and an EQ row's slack is always fixed: seed −82's
// child and seed 4919's grandchild start from a basis where such a
// column's reduced cost has the wrong sign, and went cold before
// dualFeasible exempted fixed columns. Seed 777 with mask 0x33 and seed
// 13602 with mask 0x01 are children whose dual, after that exemption,
// flipped columns with a nonzero reduced cost until its objective fell
// and cycled, for 3003 and 2754 pivots.
func FuzzWarmResolve(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, -3, 1 << 40, 805, 880, 4919, 5057, -82} {
		f.Add(seed, uint8(0))
	}
	f.Add(int64(777), uint8(0x33))
	f.Add(int64(13602), uint8(0x01))
	f.Fuzz(func(t *testing.T, seed int64, fix uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		parent, err := Solve(p)
		if err != nil {
			return
		}
		branch := func(p *Problem) *Problem {
			child := p.Clone()
			for v := 0; v < child.NumVars(); v++ {
				if rng.Intn(2) == 0 {
					continue
				}
				lo, hi := child.Bounds(v)
				cut := lo + rng.Float64()*(hi-lo)
				if rng.Intn(2) == 0 {
					cut = math.Min(hi, math.Max(lo, math.Round(cut)))
				}
				if rng.Intn(2) == 0 {
					hi = cut
				} else {
					lo = cut
				}
				if err := child.SetBounds(v, lo, hi); err != nil {
					t.Fatal(err)
				}
			}
			for v := 0; v < child.NumVars() && v < 8; v++ {
				if fix&(1<<v) == 0 {
					continue
				}
				lo, hi := child.Bounds(v)
				at := math.Min(hi, math.Max(lo, math.Round(lo+rng.Float64()*(hi-lo))))
				if err := child.SetBounds(v, at, at); err != nil {
					t.Fatal(err)
				}
			}
			return child
		}
		resolve := func(level string, child *Problem, basis *Basis) Solution {
			obsv := newCountObs()
			warm, werr := SolveWarmDeadlineObs(child, basis, time.Time{}, obsv)
			cold, cerr := Solve(child)
			if (werr == nil) != (cerr == nil) || warm.Status != cold.Status {
				t.Fatalf("seed %d fix %#x %s: warm %v/%v, cold %v/%v", seed, fix, level, warm.Status, werr, cold.Status, cerr)
			}
			if warm.Iters >= stallBland {
				t.Fatalf("seed %d fix %#x %s: warm re-solve took %d pivots, a stall or cycle", seed, fix, level, warm.Iters)
			}
			if hits, misses := obsv.get("lp.warmstart.hits"), obsv.get("lp.warmstart.misses"); hits != 1 || misses != 0 {
				t.Fatalf("seed %d fix %#x %s: warm re-solve hits=%d misses=%d, want 1/0", seed, fix, level, hits, misses)
			}
			if cold.Status != Optimal {
				return warm
			}
			if d := math.Abs(warm.Objective - cold.Objective); d > 1e-6*math.Max(1, math.Abs(cold.Objective)) {
				t.Fatalf("seed %d fix %#x %s: warm objective %.12g, cold %.12g", seed, fix, level, warm.Objective, cold.Objective)
			}
			const tol = 1e-6
			for v, x := range warm.X {
				if lo, hi := child.Bounds(v); x < lo-tol || x > hi+tol {
					t.Fatalf("seed %d fix %#x %s: warm x%d = %g outside [%g, %g]", seed, fix, level, v, x, lo, hi)
				}
			}
			for i := 0; i < child.NumConstraints(); i++ {
				c := child.cons[i]
				lhs, mag := 0.0, 1.0
				for _, tm := range c.Terms {
					lhs += tm.Coef * warm.X[tm.Var]
					mag += math.Abs(tm.Coef * warm.X[tm.Var])
				}
				if (c.Rel != GE && lhs > c.RHS+tol*mag) || (c.Rel != LE && lhs < c.RHS-tol*mag) {
					t.Fatalf("seed %d fix %#x %s: warm X violates row %d: %g %v %g", seed, fix, level, i, lhs, c.Rel, c.RHS)
				}
			}
			return warm
		}
		child := branch(p)
		if warm := resolve("child", child, parent.Basis); warm.Status == Optimal {
			resolve("grandchild", branch(child), warm.Basis)
		}
	})
}
