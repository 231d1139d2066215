package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// countObs is a thread-safe Observer for asserting solver counters.
type countObs struct {
	mu sync.Mutex
	m  map[string]int64
}

func newCountObs() *countObs { return &countObs{m: make(map[string]int64)} }

func (o *countObs) Add(name string, delta int64) {
	o.mu.Lock()
	o.m[name] += delta
	o.mu.Unlock()
}

func (o *countObs) get(name string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[name]
}

// TestWarmStartAfterBoundTightening is the branch-and-bound child
// pattern: solve a relaxation, tighten one binary-like variable's
// bounds, and re-solve warm from the parent basis. The warm solve must
// count as a hit and agree with a cold solve of the same child.
func TestWarmStartAfterBoundTightening(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	children := 0
	for i := 0; i < 120; i++ {
		p := randomLP(rng)
		parent, err := Solve(p)
		if err != nil || parent.Status != Optimal {
			continue
		}
		if parent.Basis == nil {
			t.Fatalf("instance %d: optimal solve exported no basis", i)
		}
		// Branch on the first variable with room: pin it to its floor.
		child := p.Clone()
		branched := false
		for v := 0; v < p.NumVars(); v++ {
			lo, hi := p.Bounds(v)
			if hi-lo > 0.5 {
				mid := math.Floor((lo + hi) / 2)
				if mid < lo {
					mid = lo
				}
				_ = child.SetBounds(v, lo, mid)
				branched = true
				break
			}
		}
		if !branched {
			continue
		}
		children++
		obsv := newCountObs()
		warm, werr := SolveWarmDeadlineObs(child, parent.Basis, time.Time{}, obsv)
		cold, cerr := Solve(child)
		if (werr == nil) != (cerr == nil) || warm.Status != cold.Status {
			t.Fatalf("instance %d: warm %v/%v vs cold %v/%v", i, warm.Status, werr, cold.Status, cerr)
		}
		if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("instance %d: warm objective %.12g != cold %.12g", i, warm.Objective, cold.Objective)
		}
		if hits, misses := obsv.get("lp.warmstart.hits"), obsv.get("lp.warmstart.misses"); hits+misses != 1 {
			t.Fatalf("instance %d: hits=%d misses=%d, want exactly one classification", i, hits, misses)
		}
		if obsv.get("lp.solves") != 1 {
			t.Fatalf("instance %d: lp.solves=%d, want 1", i, obsv.get("lp.solves"))
		}
	}
	if children < 30 {
		t.Fatalf("only %d warm-start children exercised, corpus too small", children)
	}
}

// TestWarmStartNilAndIncompatibleBases asserts the miss paths: a nil
// basis and a basis from a structurally different problem must both
// fall back to a correct cold solve, counted as misses.
func TestWarmStartNilAndIncompatibleBases(t *testing.T) {
	p := NewProblem(2)
	_ = p.SetObjective(0, -1)
	_ = p.SetObjective(1, -1)
	_ = p.SetBounds(0, 0, 3)
	_ = p.SetBounds(1, 0, 3)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Rel: LE, RHS: 4})

	obsv := newCountObs()
	sol, err := SolveWarmDeadlineObs(p, nil, time.Time{}, obsv)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-4)) > 1e-6 {
		t.Fatalf("nil basis: status=%v obj=%g err=%v", sol.Status, sol.Objective, err)
	}
	if obsv.get("lp.warmstart.misses") != 1 || obsv.get("lp.warmstart.hits") != 0 {
		t.Fatalf("nil basis: hits=%d misses=%d, want 0/1",
			obsv.get("lp.warmstart.hits"), obsv.get("lp.warmstart.misses"))
	}

	// A basis exported from an unrelated, larger problem.
	q := NewProblem(5)
	for v := 0; v < 5; v++ {
		_ = q.SetBounds(v, 0, 1)
	}
	_ = q.AddConstraint(Constraint{Terms: []Term{{0, 1}, {3, 2}}, Rel: LE, RHS: 1})
	_ = q.AddConstraint(Constraint{Terms: []Term{{1, 1}, {4, -1}}, Rel: GE, RHS: 0})
	qsol, err := Solve(q)
	if err != nil || qsol.Basis == nil {
		t.Fatalf("donor solve: %v", err)
	}
	obsv = newCountObs()
	sol, err = SolveWarmDeadlineObs(p, qsol.Basis, time.Time{}, obsv)
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-4)) > 1e-6 {
		t.Fatalf("incompatible basis: status=%v obj=%g err=%v", sol.Status, sol.Objective, err)
	}
	if obsv.get("lp.warmstart.misses") != 1 || obsv.get("lp.warmstart.hits") != 0 {
		t.Fatalf("incompatible basis: hits=%d misses=%d, want 0/1",
			obsv.get("lp.warmstart.hits"), obsv.get("lp.warmstart.misses"))
	}
}

// TestDeadlineTruncatedBoundValid expires the deadline before the
// first pivot of warm-started children and checks every truncated
// result that claims DualFeasible really is a lower bound on the
// child's true optimum — the property branch and bound relies on to
// keep deadline-truncated work.
func TestDeadlineTruncatedBoundValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truncated := 0
	for i := 0; i < 150; i++ {
		p := randomLP(rng)
		parent, err := Solve(p)
		if err != nil || parent.Status != Optimal {
			continue
		}
		child := p.Clone()
		branched := false
		for v := 0; v < p.NumVars(); v++ {
			lo, hi := p.Bounds(v)
			if hi-lo > 0.5 {
				_ = child.SetBounds(v, lo, math.Max(lo, math.Floor((lo+hi)/2)))
				branched = true
				break
			}
		}
		if !branched {
			continue
		}
		expired := time.Now().Add(-time.Second)
		warm, _ := SolveWarmDeadlineObs(child, parent.Basis, expired, nil)
		cold, cerr := Solve(child)
		switch warm.Status {
		case IterLimit:
			if !warm.DualFeasible {
				continue
			}
			truncated++
			if cerr == nil && cold.Status == Optimal && warm.Objective > cold.Objective+1e-6 {
				t.Fatalf("instance %d: truncated bound %.12g above true optimum %.12g",
					i, warm.Objective, cold.Objective)
			}
		case Optimal:
			// The parent basis stayed primal feasible: phase 2 truncated at
			// iteration zero can still price out optimal immediately, or the
			// feasible iterate is returned without optimality; either way the
			// objective must not beat the true optimum.
			if cold.Status == Optimal && warm.Objective < cold.Objective-1e-6 {
				t.Fatalf("instance %d: expired-deadline solve claims objective %.12g below optimum %.12g",
					i, warm.Objective, cold.Objective)
			}
		}
	}
	if truncated < 10 {
		t.Fatalf("only %d dual-truncated children, corpus too small to mean anything", truncated)
	}
}

// TestWarmStartBasisSharedAcrossChildren solves two different children
// from the same parent basis — the sibling-share pattern — and checks
// neither solve corrupts the other (the Basis must behave as
// immutable).
func TestWarmStartBasisSharedAcrossChildren(t *testing.T) {
	p := NewProblem(3)
	_ = p.SetObjective(0, -2)
	_ = p.SetObjective(1, -3)
	_ = p.SetObjective(2, -1)
	for v := 0; v < 3; v++ {
		_ = p.SetBounds(v, 0, 1)
	}
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Rel: LE, RHS: 1.5})
	parent, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	left := p.Clone()
	_ = left.SetBounds(1, 0, 0)
	right := p.Clone()
	_ = right.SetBounds(1, 1, 1)

	lWarm, lerr := SolveWarmDeadlineObs(left, parent.Basis, time.Time{}, nil)
	rWarm, rerr := SolveWarmDeadlineObs(right, parent.Basis, time.Time{}, nil)
	lCold, _ := Solve(left)
	rCold, _ := Solve(right)
	if lerr != nil || rerr != nil {
		t.Fatalf("warm children: %v / %v", lerr, rerr)
	}
	if math.Abs(lWarm.Objective-lCold.Objective) > 1e-6 || math.Abs(rWarm.Objective-rCold.Objective) > 1e-6 {
		t.Fatalf("shared-basis children diverge from cold: left %g vs %g, right %g vs %g",
			lWarm.Objective, lCold.Objective, rWarm.Objective, rCold.Objective)
	}
	// Re-run the left child from the same basis: identical answer means
	// the first pair of solves did not mutate the shared basis.
	lAgain, err := SolveWarmDeadlineObs(left, parent.Basis, time.Time{}, nil)
	if err != nil || math.Abs(lAgain.Objective-lWarm.Objective) > 1e-9 {
		t.Fatalf("re-solve from shared basis drifted: %g vs %g (err %v)", lAgain.Objective, lWarm.Objective, err)
	}
}

// TestDualTinyPivotOnFreshFactorization builds a nearly singular basis
// on which the pivot row (BTRAN) prices the only entering candidate at
// α_q ≈ 4.8e-7 while FTRAN computes w_r = 0 exactly. Rebuilding the
// inverse reproduces the same numbers, so dual simplex must give up at
// once rather than refactorize until its stall limit; the warm solve
// then falls back to a cold one, counted as a miss, that matches Solve.
func TestDualTinyPivotOnFreshFactorization(t *testing.T) {
	p := NewProblem(3)
	_ = p.SetBounds(0, math.Inf(-1), math.Inf(1))
	_ = p.SetBounds(1, 0, 1)
	_ = p.SetBounds(2, 0, 10)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 0.5296712812748865}, {1, 0.5019038945142367}, {2, 0.5772538691487273}}, Rel: EQ, RHS: 1.8154051709333605})
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 0.5028430411748626}, {1, 0.4764820931358264}, {2, 0.5480155359642015}}, Rel: EQ, RHS: 1.8780117586523999})

	f, err := newStdForm(p)
	if err != nil {
		t.Fatal(err)
	}
	s := newRevised(f, time.Time{})
	// x0 and x1 basic, x2 and both (fixed) slacks nonbasic: x2 is the only
	// column dual simplex may bring in.
	err = s.importBasis(&Basis{rows: 2, cols: 5, basic: []int32{0, 1}, status: []int8{stBasic, stBasic, stLower, stLower, stLower}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.refactorize(); err != nil {
		t.Fatal(err)
	}
	s.computeXB()
	if s.primalFeasible() || !s.dualFeasible() {
		t.Fatal("set-up basis must be dual but not primal feasible")
	}
	if st := s.dual(); st != IterLimit || s.refactors != 1 || s.iters != 0 {
		t.Fatalf("dual = %v after %d rebuilds and %d pivots, want IterLimit after the set-up rebuild alone", st, s.refactors, s.iters)
	}

	obsv := newCountObs()
	warm, werr := SolveWarmDeadlineObs(p, s.exportBasis(), time.Time{}, obsv)
	cold, cerr := Solve(p)
	if (werr == nil) != (cerr == nil) || warm.Status != cold.Status || warm.Objective != cold.Objective {
		t.Fatalf("warm %v/%v obj %g vs cold %v/%v obj %g", warm.Status, werr, warm.Objective, cold.Status, cerr, cold.Objective)
	}
	if obsv.get("lp.warmstart.misses") != 1 {
		t.Fatalf("warm start with a dead-end pivot: misses=%d, want 1", obsv.get("lp.warmstart.misses"))
	}
}

// TestSharedFormConcurrentChildren solves warm children of one problem
// from eight goroutines at once. The children are clones, so they share
// one standard form, which none of them has built yet: the first solve
// builds it while the others wait. Each child must match a solve of the
// same child on a problem that shares nothing. A clone that adds a
// constraint gets a form of its own, leaving the original's answers
// unchanged.
func TestSharedFormConcurrentChildren(t *testing.T) {
	build := func() *Problem {
		rng := rand.New(rand.NewSource(3))
		const n, m = 24, 40
		p := NewProblem(n)
		for v := 0; v < n; v++ {
			_ = p.SetObjective(v, -rng.Float64())
			_ = p.SetBounds(v, 0, 1)
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for v := 0; v < n; v++ {
				if rng.Intn(4) == 0 {
					terms = append(terms, Term{Var: v, Coef: 1 + 3*rng.Float64()})
				}
			}
			_ = p.AddConstraint(Constraint{Terms: terms, Rel: LE, RHS: 2 + 4*rng.Float64()})
		}
		return p
	}
	child := func(p *Problem, k int) *Problem {
		c := p.Clone()
		_ = c.SetBounds(k, float64(k%2), float64(k%2))
		return c
	}
	donor, err := Solve(build())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Solution, 8)
	for k := range want {
		want[k], _ = SolveWarmDeadlineObs(child(build(), k), donor.Basis, time.Time{}, nil)
	}

	shared := build()
	got := make([]Solution, len(want))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k], _ = SolveWarmDeadlineObs(child(shared, k), donor.Basis, time.Time{}, nil)
		}(k)
	}
	wg.Wait()
	for k := range got {
		if got[k].Status != want[k].Status || got[k].Objective != want[k].Objective || got[k].Iters != want[k].Iters {
			t.Fatalf("child %d on the shared form: %v obj %.17g in %d pivots, alone: %v obj %.17g in %d",
				k, got[k].Status, got[k].Objective, got[k].Iters, want[k].Status, want[k].Objective, want[k].Iters)
		}
	}

	before, err := Solve(shared)
	if err != nil {
		t.Fatal(err)
	}
	cut := shared.Clone()
	var terms []Term
	for v := 0; v < cut.NumVars(); v++ {
		terms = append(terms, Term{Var: v, Coef: 1})
	}
	if err := cut.AddConstraint(Constraint{Terms: terms, Rel: LE, RHS: 1}); err != nil {
		t.Fatal(err)
	}
	cutSol, err := Solve(cut)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Solve(shared)
	if err != nil {
		t.Fatal(err)
	}
	if after.Objective != before.Objective || after.Iters != before.Iters {
		t.Fatalf("a clone's AddConstraint moved the original: obj %.17g -> %.17g", before.Objective, after.Objective)
	}
	if cutSol.Objective <= before.Objective+1e-6 {
		t.Fatalf("the clone's cut Σx ≤ 1 left its optimum at %g (original %g)", cutSol.Objective, before.Objective)
	}
}
