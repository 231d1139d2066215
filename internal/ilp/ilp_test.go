package ilp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pesto/internal/lp"
)

func binaryProblem(n int) Problem {
	p := lp.NewProblem(n)
	bin := make([]int, n)
	for i := 0; i < n; i++ {
		_ = p.SetBounds(i, 0, 1)
		bin[i] = i
	}
	return Problem{LP: p, Binary: bin}
}

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) => a,b => 16.
	pr := binaryProblem(3)
	for i, c := range []float64{-10, -6, -4} {
		_ = pr.LP.SetObjective(i, c)
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, Rel: lp.LE, RHS: 2})
	sol, err := Solve(context.Background(), pr, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != OptimalStatus {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective+16) > 1e-6 {
		t.Fatalf("obj = %g, want -16", sol.Objective)
	}
	if sol.X[0] < 0.5 || sol.X[1] < 0.5 || sol.X[2] > 0.5 {
		t.Fatalf("X = %v, want [1 1 0]", sol.X)
	}
	if sol.Gap != 0 {
		t.Fatalf("gap = %g, want 0", sol.Gap)
	}
}

func TestWeightedKnapsack(t *testing.T) {
	// Classic: weights 12,2,1,1,4 values 4,2,2,1,10, cap 15 => all but
	// the first: value 15 with weight 8... check: choosing 2,1,1,4 ->
	// value 2+2+1+10=15; adding 12 exceeds 15+? 12+2+1+1+4=20>15. Best
	// includes item0? 12+2+1 = 15 -> 4+2+2=8 < 15. So optimum 15.
	weights := []float64{12, 2, 1, 1, 4}
	values := []float64{4, 2, 2, 1, 10}
	pr := binaryProblem(5)
	terms := make([]lp.Term, 5)
	for i := range weights {
		_ = pr.LP.SetObjective(i, -values[i])
		terms[i] = lp.Term{Var: i, Coef: weights[i]}
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: 15})
	sol, err := Solve(context.Background(), pr, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.Objective+15) > 1e-6 {
		t.Fatalf("obj = %g, want -15", sol.Objective)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 for a binary var has no integer solution. Model
	// via constraints (bounds stay [0,1]).
	pr := binaryProblem(1)
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 1}}, Rel: lp.GE, RHS: 0.4})
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 1}}, Rel: lp.LE, RHS: 0.6})
	sol, err := Solve(context.Background(), pr, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible (status=%v)", err, sol.Status)
	}
}

func TestLPInfeasibleRoot(t *testing.T) {
	pr := binaryProblem(1)
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 1}}, Rel: lp.GE, RHS: 2})
	_, err := Solve(context.Background(), pr, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y >= 1.3 - x, y >= x - 0.4, x binary, y continuous.
	// x=1 -> y >= 0.6; x=0 -> y >= 1.3. Optimum y=0.6 at x=1.
	p := lp.NewProblem(2)
	_ = p.SetBounds(0, 0, 1)
	_ = p.SetObjective(1, 1)
	_ = p.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 1, Coef: 1}, {Var: 0, Coef: 1}}, Rel: lp.GE, RHS: 1.3})
	_ = p.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 1, Coef: 1}, {Var: 0, Coef: -1}}, Rel: lp.GE, RHS: -0.4})
	pr := Problem{LP: p, Binary: []int{0}}
	sol, err := Solve(context.Background(), pr, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.Objective-0.6) > 1e-6 || sol.X[0] < 0.5 {
		t.Fatalf("obj=%g x=%v, want 0.6 with x=1", sol.Objective, sol.X)
	}
}

func TestBadBinaryBounds(t *testing.T) {
	p := lp.NewProblem(1)
	_ = p.SetBounds(0, 0, 5)
	if _, err := Solve(context.Background(), Problem{LP: p, Binary: []int{0}}, Options{}); err == nil {
		t.Fatal("expected error for binary var with bounds outside [0,1]")
	}
}

func TestIncumbentCallback(t *testing.T) {
	// The callback supplies an immediately-optimal incumbent; the
	// solver must adopt it and prove optimality.
	pr := binaryProblem(2)
	_ = pr.LP.SetObjective(0, -1)
	_ = pr.LP.SetObjective(1, -1)
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, Rel: lp.LE, RHS: 1})
	called := false
	opts := Options{Incumbent: func(relaxed []float64) ([]float64, float64, bool) {
		called = true
		return []float64{1, 0}, -1, true
	}}
	sol, err := Solve(context.Background(), pr, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !called {
		t.Fatal("incumbent callback never invoked")
	}
	if sol.Status != OptimalStatus || math.Abs(sol.Objective+1) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal -1", sol.Status, sol.Objective)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A time limit stops a 22-var knapsack early, and the incumbent
	// callback still provides a feasible answer. The callback holds the
	// search at its first call until the limit has passed, so the limit
	// binds right after the root relaxation however busy the machine is:
	// a 1 ms limit could expire before the root was solved, leaving no
	// relaxation to offer the callback.
	n := 22
	pr := binaryProblem(n)
	rng := rand.New(rand.NewSource(7))
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		w := 1 + rng.Float64()*9
		_ = pr.LP.SetObjective(i, -w)
		terms[i] = lp.Term{Var: i, Coef: w}
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: 30})
	const limit = 200 * time.Millisecond
	start := time.Now()
	calls := 0
	opts := Options{
		TimeLimit: limit,
		Incumbent: func(relaxed []float64) ([]float64, float64, bool) {
			calls++
			if calls == 1 {
				time.Sleep(time.Until(start.Add(limit + 10*time.Millisecond)))
			}
			// All-zeros is always feasible with objective 0.
			return make([]float64, n), 0, true
		},
	}
	sol, err := Solve(context.Background(), pr, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if calls == 0 {
		t.Fatal("incumbent callback never invoked")
	}
	if sol.Status != FeasibleStatus && sol.Status != OptimalStatus {
		t.Fatalf("status = %v, want feasible or optimal", sol.Status)
	}
	if sol.Objective > 0 {
		t.Fatalf("objective %g worse than heuristic incumbent 0", sol.Objective)
	}
}

func TestContextCancel(t *testing.T) {
	pr := binaryProblem(30)
	rng := rand.New(rand.NewSource(3))
	terms := make([]lp.Term, 30)
	for i := 0; i < 30; i++ {
		w := 1 + rng.Float64()*9
		_ = pr.LP.SetObjective(i, -w)
		terms[i] = lp.Term{Var: i, Coef: w}
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: 40})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(ctx, pr, Options{TimeLimit: time.Minute})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Nodes > 1 {
		t.Fatalf("cancelled search explored %d nodes", sol.Nodes)
	}
}

// TestPropertyMatchesBruteForce cross-checks B&B against exhaustive
// enumeration on small random binary problems.
func TestPropertyMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7) // up to 8 binaries
		m := 1 + rng.Intn(4)
		pr := binaryProblem(n)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = math.Round(rng.NormFloat64()*10) / 2
			_ = pr.LP.SetObjective(i, obj[i])
		}
		type consRow struct {
			coefs []float64
			rhs   float64
		}
		rows := make([]consRow, m)
		for k := 0; k < m; k++ {
			coefs := make([]float64, n)
			terms := make([]lp.Term, n)
			for i := 0; i < n; i++ {
				coefs[i] = math.Round(rng.NormFloat64() * 4)
				terms[i] = lp.Term{Var: i, Coef: coefs[i]}
			}
			rhs := math.Round(rng.NormFloat64()*6) + float64(n)/2
			rows[k] = consRow{coefs, rhs}
			_ = pr.LP.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: rhs})
		}
		// Brute force.
		bestObj := math.Inf(1)
		feasible := false
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, r := range rows {
				lhs := 0.0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						lhs += r.coefs[i]
					}
				}
				if lhs > r.rhs+1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			feasible = true
			o := 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					o += obj[i]
				}
			}
			if o < bestObj {
				bestObj = o
			}
		}
		sol, err := Solve(context.Background(), pr, Options{TimeLimit: 10 * time.Second})
		if !feasible {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil || sol.Status != OptimalStatus {
			return false
		}
		return math.Abs(sol.Objective-bestObj) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiveFindsIncumbentWithoutCallback(t *testing.T) {
	// A problem whose relaxation is fractional: pure B&B with the
	// rounding dive must still produce a feasible incumbent quickly.
	n := 14
	pr := binaryProblem(n)
	rng := rand.New(rand.NewSource(11))
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		w := 1 + rng.Float64()*5
		_ = pr.LP.SetObjective(i, -w)
		terms[i] = lp.Term{Var: i, Coef: w}
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.LE, RHS: 17})
	sol, err := Solve(context.Background(), pr, Options{TimeLimit: 5 * time.Second})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != OptimalStatus && sol.Status != FeasibleStatus {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective > -10 {
		t.Fatalf("objective %g suspiciously poor", sol.Objective)
	}
	// The incumbent must be integral.
	for _, v := range pr.Binary {
		x := sol.X[v]
		if x > 1e-6 && x < 1-1e-6 {
			t.Fatalf("non-integral incumbent: x[%d]=%g", v, x)
		}
	}
}
