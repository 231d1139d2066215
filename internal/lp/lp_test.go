package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSolveBasicMax(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6, x,y >= 0  => x=4, y=0, obj 12.
	p := NewProblem(2)
	_ = p.SetObjective(0, -3)
	_ = p.SetObjective(1, -2)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: LE, RHS: 4})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 3}}, Rel: LE, RHS: 6})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -12) || !approx(sol.X[0], 4) || !approx(sol.X[1], 0) {
		t.Fatalf("got X=%v obj=%g, want X=[4 0] obj=-12", sol.X, sol.Objective)
	}
}

func TestSolveWithGEAndEQ(t *testing.T) {
	// min x + y s.t. x + y >= 2, x - y = 0  => x=y=1, obj 2.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.SetObjective(1, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: GE, RHS: 2})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, -1}}, Rel: EQ, RHS: 0})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 2) || !approx(sol.X[0], 1) || !approx(sol.X[1], 1) {
		t.Fatalf("got X=%v obj=%g, want X=[1 1] obj=2", sol.X, sol.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := NewProblem(1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Rel: LE, RHS: 1})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Rel: GE, RHS: 2})
	sol, err := Solve(p)
	if !errors.Is(err, ErrNoSolution) || sol.Status != Infeasible {
		t.Fatalf("got status=%v err=%v, want infeasible", sol.Status, err)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x with x >= 0 free above.
	p := NewProblem(1)
	_ = p.SetObjective(0, -1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Rel: GE, RHS: 0})
	sol, err := Solve(p)
	if !errors.Is(err, ErrNoSolution) || sol.Status != Unbounded {
		t.Fatalf("got status=%v err=%v, want unbounded", sol.Status, err)
	}
}

func TestSolveUpperBounds(t *testing.T) {
	// max x + y with 0 <= x,y <= 1 and x + y <= 1.5 => obj 1.5.
	p := NewProblem(2)
	_ = p.SetObjective(0, -1)
	_ = p.SetObjective(1, -1)
	_ = p.SetBounds(0, 0, 1)
	_ = p.SetBounds(1, 0, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: LE, RHS: 1.5})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -1.5) {
		t.Fatalf("obj = %g, want -1.5", sol.Objective)
	}
	if sol.X[0] > 1+1e-6 || sol.X[1] > 1+1e-6 {
		t.Fatalf("bounds violated: %v", sol.X)
	}
}

func TestSolveNonzeroLowerBounds(t *testing.T) {
	// min x + y with x >= 2, y in [3, 5], x + y <= 10.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.SetObjective(1, 1)
	_ = p.SetBounds(0, 2, math.Inf(1))
	_ = p.SetBounds(1, 3, 5)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: LE, RHS: 10})
	sol := solveOK(t, p)
	if !approx(sol.X[0], 2) || !approx(sol.X[1], 3) || !approx(sol.Objective, 5) {
		t.Fatalf("got X=%v obj=%g, want [2 3] obj=5", sol.X, sol.Objective)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3).
	p := NewProblem(1)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, -1}}, Rel: LE, RHS: -3})
	sol := solveOK(t, p)
	if !approx(sol.X[0], 3) {
		t.Fatalf("x = %g, want 3", sol.X[0])
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classically degenerate LP (Beale-like); the Bland fallback must
	// terminate. min -0.75x1 + 150x2 - 0.02x3 + 6x4 subject to the
	// cycling-prone constraints.
	p := NewProblem(4)
	for i, c := range []float64{-0.75, 150, -0.02, 6} {
		_ = p.SetObjective(i, c)
	}
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, Rel: LE, RHS: 0})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, Rel: LE, RHS: 0})
	_ = p.AddConstraint(Constraint{Terms: []Term{{2, 1}}, Rel: LE, RHS: 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -0.05) {
		t.Fatalf("obj = %g, want -0.05", sol.Objective)
	}
}

func TestSolveEqualityOnly(t *testing.T) {
	// x + y = 3, x - y = 1 => x=2, y=1; objective min x.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: EQ, RHS: 3})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, -1}}, Rel: EQ, RHS: 1})
	sol := solveOK(t, p)
	if !approx(sol.X[0], 2) || !approx(sol.X[1], 1) {
		t.Fatalf("X = %v, want [2 1]", sol.X)
	}
}

func TestSolveRedundantConstraints(t *testing.T) {
	// Duplicate equality rows create redundant artificial rows which
	// dropArtificials must remove.
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.SetObjective(1, 2)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: EQ, RHS: 4})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 2}, {1, 2}}, Rel: EQ, RHS: 8})
	sol := solveOK(t, p)
	if !approx(sol.X[0]+sol.X[1], 4) || !approx(sol.Objective, 4) {
		t.Fatalf("X = %v obj=%g", sol.X, sol.Objective)
	}
}

func TestValidationErrors(t *testing.T) {
	p := NewProblem(1)
	if err := p.SetObjective(5, 1); err == nil {
		t.Error("SetObjective out of range should fail")
	}
	if err := p.SetBounds(0, 2, 1); err == nil {
		t.Error("inverted bounds should fail")
	}
	if err := p.AddConstraint(Constraint{Terms: []Term{{3, 1}}, Rel: LE, RHS: 0}); err == nil {
		t.Error("constraint with unknown var should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProblem(2)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: GE, RHS: 1})
	c := p.Clone()
	_ = c.SetBounds(0, 0.5, 0.5)
	if lo, _ := p.Bounds(0); lo != 0 {
		t.Fatal("clone bound mutation leaked into original")
	}
	// Both still solvable.
	if _, err := Solve(p); err != nil {
		t.Fatalf("original: %v", err)
	}
	if _, err := Solve(c); err != nil {
		t.Fatalf("clone: %v", err)
	}
}

// TestPropertyRandomFeasibleLPs generates LPs with a known feasible point
// and checks that the solver (a) declares them feasible and (b) returns a
// solution satisfying every constraint within tolerance, with objective
// no worse than the known point's.
func TestPropertyRandomFeasibleLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(8)
		p := NewProblem(n)
		x0 := make([]float64, n) // known feasible point
		for j := 0; j < n; j++ {
			x0[j] = rng.Float64() * 10
			_ = p.SetObjective(j, rng.NormFloat64())
			_ = p.SetBounds(j, 0, 20)
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			lhs := 0.0
			for j := 0; j < n; j++ {
				c := rng.NormFloat64()
				terms = append(terms, Term{Var: j, Coef: c})
				lhs += c * x0[j]
			}
			// Make the constraint satisfied at x0 with slack.
			_ = p.AddConstraint(Constraint{Terms: terms, Rel: LE, RHS: lhs + rng.Float64()})
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		// Verify feasibility of the returned point.
		for i := 0; i < p.NumConstraints(); i++ {
			c := p.cons[i]
			lhs := 0.0
			for _, tm := range c.Terms {
				lhs += tm.Coef * sol.X[tm.Var]
			}
			if lhs > c.RHS+1e-6 {
				return false
			}
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-6 || sol.X[j] > 20+1e-6 {
				return false
			}
		}
		// Optimality vs the known point.
		obj0 := 0.0
		for j := 0; j < n; j++ {
			obj0 += p.obj[j] * x0[j]
		}
		return sol.Objective <= obj0+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDeadlineExpiry(t *testing.T) {
	// An already-expired deadline must surface as IterLimit, not hang.
	p := NewProblem(3)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Rel: GE, RHS: 3})
	sol, err := SolveDeadlineObs(p, time.Now().Add(-time.Second), nil)
	if !errors.Is(err, ErrNoSolution) || sol.Status != IterLimit {
		t.Fatalf("status=%v err=%v, want IterLimit", sol.Status, err)
	}
}

func TestSolveZeroDeadlineMeansUnlimited(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective(0, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Rel: GE, RHS: 2})
	sol, err := SolveDeadlineObs(p, time.Time{}, nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("status=%v err=%v", sol.Status, err)
	}
}
