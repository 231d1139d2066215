package ilp

import (
	"context"
	"math"
	"testing"

	"pesto/internal/engine"
	"pesto/internal/lp"
	"pesto/internal/obs"
)

// TestSolveTelemetry checks that a recorder on the context observes the
// search: node and LP counters match the reported node count, and the
// convergence series brackets the optimum (bound ≤ optimum ≤ incumbent
// for a minimization).
func TestSolveTelemetry(t *testing.T) {
	pr := binaryProblem(3)
	for i, c := range []float64{-10, -6, -4} {
		_ = pr.LP.SetObjective(i, c)
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, Rel: lp.LE, RHS: 2})

	sink := obs.NewMemorySink()
	rec := obs.NewRecorder(sink)
	ctx := obs.Into(context.Background(), rec)
	sol, err := Solve(ctx, pr, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got := rec.Counter("ilp.nodes"); got != int64(sol.Nodes) {
		t.Errorf("ilp.nodes counter = %d, want %d (sol.Nodes)", got, sol.Nodes)
	}
	if got := rec.Counter("lp.solves"); got < int64(sol.Nodes) {
		t.Errorf("lp.solves = %d, want >= %d (one per node)", got, sol.Nodes)
	}
	if rec.Counter("lp.pivots") <= 0 {
		t.Errorf("lp.pivots = %d, want > 0", rec.Counter("lp.pivots"))
	}
	if rec.Counter("ilp.incumbents") <= 0 {
		t.Errorf("ilp.incumbents = %d, want > 0", rec.Counter("ilp.incumbents"))
	}
	var sawIncumbentSample, sawBoundSample bool
	for _, r := range sink.Records() {
		switch {
		case r.Kind == obs.KindSample && r.Name == "ilp.incumbent":
			sawIncumbentSample = true
			if r.Value < sol.Objective-1e-9 {
				t.Errorf("incumbent sample %g below final objective %g", r.Value, sol.Objective)
			}
		case r.Kind == obs.KindSample && r.Name == "ilp.bound":
			sawBoundSample = true
			if r.Value > sol.Objective+1e-6 {
				t.Errorf("bound sample %g above optimum %g", r.Value, sol.Objective)
			}
		case r.Kind == obs.KindPoint && r.Name == "ilp.incumbent":
			if math.IsInf(r.Value, 0) {
				t.Errorf("incumbent point carries non-finite value")
			}
		}
	}
	if !sawIncumbentSample || !sawBoundSample {
		t.Errorf("convergence series incomplete: incumbent=%v bound=%v", sawIncumbentSample, sawBoundSample)
	}
}

// TestSolveNoRecorderUnchanged pins the no-recorder path to the same
// result as the recorded path — telemetry must not perturb the search.
func TestSolveNoRecorderUnchanged(t *testing.T) {
	pr := binaryProblem(5)
	for i, c := range []float64{-4, -2, -2, -1, -10} {
		_ = pr.LP.SetObjective(i, c)
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: []lp.Term{
		{Var: 0, Coef: 12}, {Var: 1, Coef: 2}, {Var: 2, Coef: 1}, {Var: 3, Coef: 1}, {Var: 4, Coef: 4},
	}, Rel: lp.LE, RHS: 15})

	plain, err := Solve(context.Background(), pr, Options{})
	if err != nil {
		t.Fatalf("plain Solve: %v", err)
	}
	ctx := obs.Into(context.Background(), obs.NewRecorder(obs.NewMemorySink()))
	traced, err := Solve(ctx, pr, Options{})
	if err != nil {
		t.Fatalf("traced Solve: %v", err)
	}
	if plain.Objective != traced.Objective || plain.Nodes != traced.Nodes || plain.Status != traced.Status {
		t.Errorf("telemetry perturbed search: plain={obj %g nodes %d %v} traced={obj %g nodes %d %v}",
			plain.Objective, plain.Nodes, plain.Status, traced.Objective, traced.Nodes, traced.Status)
	}
}

// TestWideFrontierStaysWarm runs a best-bound search whose frontier
// grows past 512 open nodes and checks that every child still
// warm-starts: the root is the only warm-start miss. The problem is
// Jeroslow's 2·Σx = n over n binaries with n odd, which no 0-1 point
// satisfies, so every relaxation that is feasible has a fractional
// variable and is branched; an incumbent the hook supplies at the
// first node, far above every bound, switches the search to best-bound
// order and prunes nothing. Each solved node then either is infeasible
// or was offered to the hook and branched into two children, so the
// frontier the search leaves open is 1 + 2·offered − nodes. Batches run
// on four workers, so siblings import their parent's basis
// concurrently.
func TestWideFrontierStaysWarm(t *testing.T) {
	const n, maxNodes = 21, 1200
	pr := binaryProblem(n)
	terms := make([]lp.Term, n)
	for i := range terms {
		_ = pr.LP.SetObjective(i, 1+float64(i)/64)
		terms[i] = lp.Term{Var: i, Coef: 2}
	}
	_ = pr.LP.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.EQ, RHS: n})
	offered := 0
	hook := func(relaxed []float64) ([]float64, float64, bool) {
		offered++
		return relaxed, 1e9, offered == 1
	}
	rec := obs.NewRecorder()
	sol, err := Solve(obs.Into(context.Background(), rec), pr, Options{MaxNodes: maxNodes, Incumbent: hook, Pool: engine.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes < maxNodes {
		t.Fatalf("search stopped after %d nodes, before its %d-node cap", sol.Nodes, maxNodes)
	}
	if open := 1 + 2*offered - sol.Nodes; open <= 512 {
		t.Fatalf("frontier left %d open nodes; the test needs more than 512", open)
	}
	if misses, solves := rec.Counter("lp.warmstart.misses"), rec.Counter("lp.solves"); misses != 1 {
		t.Fatalf("%d warm-start misses over %d LP solves; want 1, the cold root", misses, solves)
	}
}
