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
// basis, a basis from a structurally different problem, and status
// vectors of the right shape that mark one column too few or too many
// basic must all fall back to a correct cold solve, counted as misses.
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

	// p has one row and three columns (x0, x1, the slack).
	cold, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		status []int8
	}{
		{"m-1 basic", []int8{stLower, stLower, stLower}},
		{"m+1 basic", []int8{stBasic, stLower, stBasic}},
	} {
		name := tc.name
		obsv = newCountObs()
		sol, err = SolveWarmDeadlineObs(p, &Basis{rows: 1, status: tc.status}, time.Time{}, obsv)
		if err != nil || sol.Status != cold.Status || sol.Objective != cold.Objective || sol.Iters != cold.Iters {
			t.Fatalf("%s: status=%v obj=%g iters=%d err=%v, want Solve's %v obj=%g iters=%d",
				name, sol.Status, sol.Objective, sol.Iters, err, cold.Status, cold.Objective, cold.Iters)
		}
		if obsv.get("lp.warmstart.misses") != 1 || obsv.get("lp.warmstart.hits") != 0 {
			t.Fatalf("%s: hits=%d misses=%d, want 0/1", name,
				obsv.get("lp.warmstart.hits"), obsv.get("lp.warmstart.misses"))
		}
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

// TestDualPivotsInsteadOfCostlyFlip: min a + 2b + 3c over a + b + c ≥ 3
// from the basis {c} with a and b at their upper bound 1, after c's
// lower bound rises to 2.5. The first dual iteration enters b (d_b = −1),
// whose step of 1.5 passes its other bound. A flip there would leave
// d_b < 0 at b's lower bound, dual infeasible; b must be pivoted in
// instead, basic at −0.5. A deadline cut after that pivot, as before
// any iteration, reports a lower bound, and the full warm re-solve
// reaches the cold optimum 8 without a flip.
func TestDualPivotsInsteadOfCostlyFlip(t *testing.T) {
	p := NewProblem(3)
	for v, c := range []float64{1, 2, 3} {
		_ = p.SetObjective(v, c)
	}
	_ = p.SetBounds(0, 0, 1)
	_ = p.SetBounds(1, 0, 1)
	_ = p.SetBounds(2, 2.5, 10)
	_ = p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Rel: GE, RHS: 3})
	warm := &Basis{rows: 1, status: []int8{stUpper, stUpper, stBasic, stUpper}}
	for _, iters := range []int{0, 1} {
		s, err := getRevised(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.release()
		if err := s.importBasis(warm); err != nil {
			t.Fatal(err)
		}
		if s.primalFeasible() || !s.dualFeasible() {
			t.Fatal("set-up basis must be dual but not primal feasible")
		}
		s.maxIters = iters
		if st := s.dual(); st != IterLimit || s.flips != 0 || s.dualIters != iters {
			t.Fatalf("%d iterations: dual = %v after %d pivots, %d of them flips", iters, st, s.dualIters, s.flips)
		}
		if iters == 1 && (s.status[1] != stBasic || math.Abs(s.xB[s.rowOf[1]]-(-0.5)) > 1e-6) {
			t.Fatalf("after one iteration b has status %d; want it basic at -0.5", s.status[1])
		}
		if sol := s.cutDual(); !sol.DualFeasible || sol.Objective > 8+1e-6 {
			t.Fatalf("cut after %d iterations: DualFeasible = %t, objective %g; want a lower bound on 8", iters, sol.DualFeasible, sol.Objective)
		}
	}
	obsv := newCountObs()
	sol, err := SolveWarmDeadlineObs(p, warm, time.Time{}, obsv)
	if err != nil || math.Abs(sol.Objective-8) > 1e-6 || obsv.get("lp.warmstart.hits") != 1 || obsv.get("lp.pivots.flip") != 0 {
		t.Fatalf("warm re-solve: %v obj %g, hits %d, flips %d; want a hit at 8 with no flip",
			err, sol.Objective, obsv.get("lp.warmstart.hits"), obsv.get("lp.pivots.flip"))
	}
}

// TestWarmImportIgnoresFixedColumns is the B&B child whose parent fixed
// a column earlier: min −x − 2y − 3f over x + y + f ≤ 5 with f fixed at
// 1 sits at its optimum y = 4 with f nonbasic at its lower bound and a
// reduced cost of −1, the wrong sign for a column that could rise. It
// cannot rise, so the basis is optimal. The child lowers y's upper bound
// to 3; its warm re-solve must run the dual simplex from the parent
// basis, a hit and no miss, to the cold optimum −10. A deadline that cuts
// that dual before its first pivot must still report the parent's −11
// as a lower bound.
func TestWarmImportIgnoresFixedColumns(t *testing.T) {
	const x, y, f = 0, 1, 2
	p := NewProblem(3)
	for v, c := range []float64{-1, -2, -3} {
		_ = p.SetObjective(v, c)
	}
	_ = p.SetBounds(x, 0, 10)
	_ = p.SetBounds(y, 0, 10)
	_ = p.SetBounds(f, 1, 1)
	_ = p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}, {f, 1}}, Rel: LE, RHS: 5})
	parent, err := Solve(p)
	if err != nil || math.Abs(parent.Objective-(-11)) > 1e-6 {
		t.Fatalf("parent: %v obj %g, want optimal at -11", err, parent.Objective)
	}
	child := p.Clone()
	_ = child.SetBounds(y, 0, 3)

	// The child's start: y basic above its new bound, and f the only
	// column whose reduced cost has the wrong sign.
	s, err := getRevised(child, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	if err := s.importBasis(parent.Basis); err != nil {
		t.Fatal(err)
	}
	s.reducedCosts()
	if s.status[y] != stBasic || s.status[f] != stLower || s.d[f] > -feasTol || s.primalFeasible() {
		t.Fatalf("set-up: statuses %v, d_f = %g; want y basic and infeasible, f at lower with d_f < 0", s.status, s.d[f])
	}
	for j, d := range s.d {
		if j != f && ((s.status[j] == stLower && d < -feasTol) || (s.status[j] == stUpper && d > feasTol)) {
			t.Fatalf("set-up: column %d (status %d) also has a wrong-sign reduced cost %g", j, s.status[j], d)
		}
	}
	if sol := s.cutDual(); !sol.DualFeasible || math.Abs(sol.Objective-(-11)) > 1e-6 {
		t.Fatalf("cut before the first pivot: DualFeasible %t, objective %g; want the parent's -11 as a lower bound", sol.DualFeasible, sol.Objective)
	}

	obsv := newCountObs()
	warm, werr := SolveWarmDeadlineObs(child, parent.Basis, time.Time{}, obsv)
	cold, cerr := Solve(child)
	if werr != nil || cerr != nil || warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9 || math.Abs(cold.Objective-(-10)) > 1e-6 {
		t.Fatalf("warm %v/%v obj %g, cold %v/%v obj %g; want both optimal at -10",
			warm.Status, werr, warm.Objective, cold.Status, cerr, cold.Objective)
	}
	if hits, misses := obsv.get("lp.warmstart.hits"), obsv.get("lp.warmstart.misses"); hits != 1 || misses != 0 {
		t.Fatalf("warm re-solve: hits=%d misses=%d, want 1/0", hits, misses)
	}
	if dual := obsv.get("lp.pivots.dual"); dual == 0 {
		t.Fatal("warm re-solve took no dual pivot; the child did not exercise the dual simplex")
	}
}

// TestDualFlipCycleBroken is the smallest flip cycle: rows u − q − a = 0
// and v + q − b = 1 with u, v ≥ 5 basic and violated, and q ∈ [0, 1] at
// zero cost, eligible in both rows at ratio 0. The most violated row
// flips q up, which makes the other row the most violated, which flips
// it back. The second flip of q in one basis must hand row choice to
// Bland's rule at once, so the warm re-solve ends in a handful of
// pivots at the cold optimum a + b = 9.
func TestDualFlipCycleBroken(t *testing.T) {
	const u, v, q, a, b = 0, 1, 2, 3, 4
	p := NewProblem(5)
	_ = p.SetObjective(a, 1)
	_ = p.SetObjective(b, 1)
	_ = p.SetBounds(u, 5, 10)
	_ = p.SetBounds(v, 5, 10)
	_ = p.SetBounds(q, 0, 1)
	_ = p.SetBounds(a, 0, 100)
	_ = p.SetBounds(b, 0, 100)
	_ = p.AddConstraint(Constraint{Terms: []Term{{u, 1}, {q, -1}, {a, -1}}, Rel: EQ, RHS: 0})
	_ = p.AddConstraint(Constraint{Terms: []Term{{v, 1}, {q, 1}, {b, -1}}, Rel: EQ, RHS: 1})
	// u and v basic (B = I), everything else at its lower bound.
	warm := &Basis{rows: 2, status: []int8{stBasic, stBasic, stLower, stLower, stLower, stLower, stLower}}

	obsv := newCountObs()
	sol, err := SolveWarmDeadlineObs(p, warm, time.Time{}, obsv)
	cold, cerr := Solve(p)
	if err != nil || cerr != nil || math.Abs(sol.Objective-9) > 1e-9 || math.Abs(cold.Objective-9) > 1e-9 {
		t.Fatalf("warm %v/%v obj %g, cold %v/%v obj %g, want both optimal at 9",
			sol.Status, err, sol.Objective, cold.Status, cerr, cold.Objective)
	}
	flips, dual := obsv.get("lp.pivots.flip"), obsv.get("lp.pivots.dual")
	if obsv.get("lp.warmstart.hits") != 1 || sol.Iters > 10 || flips < 2 || flips > dual {
		t.Fatalf("warm re-solve: hit %d, %d pivots, %d dual, %d flips; want a hit in ≤ 10 pivots, ≥ 2 of them flips",
			obsv.get("lp.warmstart.hits"), sol.Iters, dual, flips)
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

	s, err := getRevised(p, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	// x0 and x1 basic, x2 and both (fixed) slacks nonbasic: x2 is the only
	// column dual simplex may bring in. The import is the set-up rebuild.
	err = s.importBasis(&Basis{rows: 2, status: []int8{stBasic, stBasic, stLower, stLower, stLower}})
	if err != nil {
		t.Fatal(err)
	}
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
// unchanged, and a constraint either side adds never shows in the
// other's shared constraint list.
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

	// A clone shares the original's constraint list, which has spare
	// capacity. When both add a constraint, in either order, each must
	// solve as a problem that was built with its own constraint alone.
	sumAtMost := func(p *Problem, rhs float64) {
		var terms []Term
		for v := 0; v < p.NumVars(); v++ {
			terms = append(terms, Term{Var: v, Coef: 1})
		}
		if err := p.AddConstraint(Constraint{Terms: terms, Rel: LE, RHS: rhs}); err != nil {
			t.Fatal(err)
		}
	}
	alone := func(rhs float64) Solution {
		p := build()
		sumAtMost(p, rhs)
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	wantOrig, wantClone := alone(1), alone(2)
	if wantOrig.Objective == wantClone.Objective {
		t.Fatal("Σx ≤ 1 and Σx ≤ 2 give the same optimum; the check below could not tell them apart")
	}
	for _, cloneFirst := range []bool{false, true} {
		orig := build()
		if cap(orig.cons) == len(orig.cons) {
			t.Fatal("the original's constraint list has no spare capacity")
		}
		cl := orig.Clone()
		if cloneFirst {
			sumAtMost(cl, 2)
			sumAtMost(orig, 1)
		} else {
			sumAtMost(orig, 1)
			sumAtMost(cl, 2)
		}
		for _, c := range []struct {
			name string
			p    *Problem
			want Solution
		}{{"original", orig, wantOrig}, {"clone", cl, wantClone}} {
			got, err := Solve(c.p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Objective != c.want.Objective || got.Iters != c.want.Iters {
				t.Fatalf("clone first %t: the %s solves to %.17g in %d pivots, built alone %.17g in %d",
					cloneFirst, c.name, got.Objective, got.Iters, c.want.Objective, c.want.Iters)
			}
		}
	}
}
