package lp

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Iteration loops of the revised simplex: composite-phase-1 and phase-2
// primal, the dual simplex used for warm-started re-solves, and the
// top-level driver.

const (
	stallBland = 2000 // degenerate iterations before Bland's rule kicks in
	stallAbort = 8000 // degenerate iterations before giving up
)

// priceEntering scans the nonbasic columns for an entering candidate.
// Dantzig pricing picks the most improving reduced cost (ties to the
// lowest column index); Bland's rule picks the first eligible column.
// Fixed columns (lo == hi) can never move and are skipped. Returns -1
// when the current basis prices out optimal for the phase objective.
func (s *revised) priceEntering(phase1, bland bool, y []float64) (q int, dq float64) {
	f := s.f
	q = -1
	best := epsCost
	for j := 0; j < f.n; j++ {
		if s.status[j] == stBasic || f.fixed(j) {
			continue
		}
		var cj float64
		if !phase1 {
			cj = f.cost[j]
		}
		d := cj - s.colDot(y, j)
		var mag float64
		switch s.status[j] {
		case stLower:
			mag = -d
		case stUpper:
			mag = d
		case stFree:
			mag = math.Abs(d)
		}
		if mag > best {
			q, dq = j, d
			if bland {
				return q, dq
			}
			best = mag
		}
	}
	return q, dq
}

// confirmTerminal guards every terminal verdict (optimal, infeasible,
// phase-1 feasible) against eta-file drift: accumulated product-form
// updates can perturb the duals enough to price out a non-optimal
// basis. If any etas were appended since the last refactorization, the
// inverse is rebuilt from scratch and the caller must re-price
// (returns false); once the verdict is reached on a freshly factored
// basis it stands (returns true). A rebuild failure also returns true —
// the tentative verdict is the best available on a numerically
// singular basis.
func (s *revised) confirmTerminal() bool {
	if len(s.etas) <= s.etasBase {
		return true
	}
	if err := s.refactorize(); err != nil {
		return true
	}
	s.computeXB()
	return false
}

// primal runs bounded-variable primal simplex iterations. With phase1
// true it minimizes the composite infeasibility of the basic variables
// (costs ±1 on out-of-bound basics, recomputed every iteration) and
// returns Optimal once feasible, Infeasible when priced out with
// residual infeasibility. With phase1 false it minimizes the problem
// objective from a primal-feasible basis and returns Optimal, Unbounded
// or IterLimit. The wall-clock deadline is checked every 32 pivots.
func (s *revised) primal(phase1 bool) Status {
	f := s.f
	lastObj := math.Inf(1)
	stall := 0
	for iter := 0; iter < s.maxIters; iter++ {
		if iter%32 == 0 && s.deadlineExpired() {
			return IterLimit
		}
		if err := s.maybeRefactor(); err != nil {
			return IterLimit
		}
		var obj float64
		if phase1 {
			obj = s.totalInfeas()
			if obj < 1e-9 {
				if !s.confirmTerminal() {
					continue
				}
				return Optimal
			}
		} else {
			obj = s.objValue()
		}
		if obj < lastObj-1e-12 {
			lastObj = obj
			stall = 0
		} else {
			stall++
			if stall > stallAbort {
				return IterLimit
			}
		}
		bland := iter >= s.maxIters/2 || stall >= stallBland
		y := s.duals(phase1)
		q, dq := s.priceEntering(phase1, bland, y)
		if q < 0 {
			if !s.confirmTerminal() {
				continue
			}
			if phase1 && s.totalInfeas() > 1e-6 {
				return Infeasible
			}
			return Optimal
		}
		sigma := 1.0
		switch s.status[q] {
		case stUpper:
			sigma = -1
		case stFree:
			if dq > 0 {
				sigma = -1
			}
		}
		w := s.ftran(q)
		// Ratio test over the basic variables. di is the rate of change
		// of xB[i] per unit step of the entering variable. In phase 1 an
		// infeasible basic only blocks at the bound it is approaching
		// (where its composite cost changes); a feasible basic blocks at
		// whichever finite bound it moves toward.
		tRow := math.Inf(1)
		r := -1
		wr := 0.0
		rUp := false // leaving variable exits at its upper bound
		for _, pi := range s.pat {
			i := int(pi)
			wi := w[i]
			if wi > -eps && wi < eps {
				continue
			}
			di := -sigma * wi
			bi := s.basis[i]
			lo, hi := f.lo[bi], f.hi[bi]
			xb := s.xB[i]
			t := math.Inf(1)
			atUp := false
			if phase1 && xb < lo-feasTol {
				if di > eps {
					t = (lo - xb) / di
				}
			} else if phase1 && xb > hi+feasTol {
				if di < -eps {
					t, atUp = (hi-xb)/di, true
				}
			} else if di > eps && !math.IsInf(hi, 1) {
				t, atUp = (hi-xb)/di, true
			} else if di < -eps && !math.IsInf(lo, -1) {
				t = (lo - xb) / di
			}
			if math.IsInf(t, 1) {
				continue
			}
			if t < 0 {
				t = 0
			}
			if r < 0 || t < tRow-eps {
				tRow, r, wr, rUp = t, i, wi, atUp
			} else if t < tRow+eps {
				// Near-tie: prefer a clearly larger pivot magnitude for
				// stability, otherwise the lower basic column index for
				// determinism.
				aw, ab := math.Abs(wi), math.Abs(wr)
				if aw > 4*ab || (4*aw > ab && bi < s.basis[r]) {
					if t < tRow {
						tRow = t
					}
					r, wr, rUp = i, wi, atUp
				}
			}
		}
		// The entering variable's own opposite bound can be the binding
		// limit, in which case it flips bounds without a basis change.
		span := f.hi[q] - f.lo[q]
		if s.status[q] != stFree && !math.IsInf(span, 1) && span < tRow-eps {
			for _, i := range s.pat {
				s.xB[i] -= sigma * span * w[i]
			}
			if s.status[q] == stLower {
				s.status[q] = stUpper
			} else {
				s.status[q] = stLower
			}
			s.iters++
			continue
		}
		if r < 0 {
			if phase1 {
				return IterLimit // defensive: phase 1 is bounded below
			}
			return Unbounded
		}
		// The ratio test admits only |w_r| ≥ eps, so the pivot is usable.
		t := tRow
		enterVal := s.nbValue(q) + sigma*t
		for _, i := range s.pat {
			if int(i) == r {
				continue
			}
			s.xB[i] -= sigma * t * w[i]
		}
		leave := s.basis[r]
		if rUp {
			s.status[leave] = stUpper
		} else {
			s.status[leave] = stLower
		}
		s.etaUpdate(r, q, w)
		s.xB[r] = enterVal
	}
	return IterLimit
}

// dual runs bounded-variable dual simplex from a dual-feasible basis,
// driving out primal infeasibility while keeping reduced-cost signs
// valid. It returns Optimal when the basis becomes primal feasible
// (phase 2 then verifies optimality, usually with zero extra pivots),
// Infeasible when a violated row admits no entering column, and
// IterLimit on deadline or stall.
//
// Row choice is the most violated row until the objective has not risen
// for stallBland iterations, or until a column is bound-flipped twice in
// one basis: a boxed column eligible in two violated rows is flipped back
// and forth between them with the basis unchanged, a cycle. Either way
// the first violated row is taken instead (Bland's rule), until the
// objective next rises.
func (s *revised) dual() Status {
	f := s.f
	lastObj := math.Inf(-1)
	stall := 0
	cycling := false
	// s.d is fresh for the factorization counted by s.dFactor: it is
	// computed from a BTRAN again after every rebuild and updated from
	// the pivot row in between. The reduced costs dualFeasible() left
	// are reused when no rebuild came after them.
	for iter := 0; iter < s.maxIters; iter++ {
		if iter%32 == 0 && s.deadlineExpired() {
			return IterLimit
		}
		if err := s.maybeRefactor(); err != nil {
			return IterLimit
		}
		obj := s.objValue()
		if obj > lastObj+1e-12 {
			lastObj = obj
			stall = 0
			cycling = false
		} else {
			stall++
			if stall > stallAbort {
				return IterLimit
			}
		}
		bland := cycling || stall >= stallBland
		// Leaving row: most violated basic variable (Bland: first
		// violated row, a fixed scan order).
		r := -1
		viol := 0.0
		below := false
		for i := 0; i < f.m; i++ {
			bi := s.basis[i]
			var v float64
			var bel bool
			if s.xB[i] < f.lo[bi]-feasTol {
				v, bel = f.lo[bi]-s.xB[i], true
			} else if s.xB[i] > f.hi[bi]+feasTol {
				v, bel = s.xB[i]-f.hi[bi], false
			} else {
				continue
			}
			if r < 0 || (!bland && v > viol) {
				viol, r, below = v, i, bel
			}
			if bland {
				break
			}
		}
		if r < 0 {
			if !s.confirmTerminal() {
				continue
			}
			return Optimal
		}
		// Entering column: dual ratio test over row r of B^{-1}A. The
		// min ratio keeps every reduced cost on its feasible side; ties
		// prefer the larger |alpha| for stability.
		if s.dFactor != s.refactors {
			s.reducedCosts()
		}
		alphas := s.pivotRow(r)
		q := -1
		var alphaQ, ratioBest float64
		for j, alpha := range alphas {
			if alpha < eps && alpha > -eps {
				continue
			}
			if s.status[j] == stBasic || f.fixed(j) {
				continue
			}
			ok := false
			switch s.status[j] {
			case stLower:
				ok = (below && alpha < 0) || (!below && alpha > 0)
			case stUpper:
				ok = (below && alpha > 0) || (!below && alpha < 0)
			case stFree:
				ok = true
			}
			if !ok {
				continue
			}
			d := s.d[j]
			var ratio float64
			if below {
				ratio = -d / alpha
			} else {
				ratio = d / alpha
			}
			if ratio < 0 {
				ratio = 0
			}
			if q < 0 || ratio < ratioBest-eps ||
				(ratio < ratioBest+eps && math.Abs(alpha) > math.Abs(alphaQ)) {
				q, alphaQ, ratioBest = j, alpha, ratio
			}
		}
		if q < 0 {
			if !s.confirmTerminal() {
				continue
			}
			return Infeasible
		}
		w := s.ftran(q)
		if math.Abs(w[r]) < 1e-11 {
			// FTRAN and the pivot row disagree on α_q. A rebuild may
			// settle it, but on a basis factored fresh since the last
			// pivot the retry would pick the same (r, q) forever: give
			// up, and solveRevised falls back to a cold solve.
			if len(s.etas) == s.etasBase {
				return IterLimit
			}
			if err := s.refactorize(); err != nil {
				return IterLimit
			}
			s.computeXB()
			continue
		}
		var target float64
		if below {
			target = f.lo[s.basis[r]]
		} else {
			target = f.hi[s.basis[r]]
		}
		deltaQ := (s.xB[r] - target) / w[r]
		// If the entering variable would blow past its own opposite
		// bound and its reduced cost is zero, flip it there instead of
		// pivoting; row r stays violated (less so) and the next
		// iteration continues. A zero reduced cost is feasible at either
		// bound. A nonzero one would be left on the wrong side of the
		// new bound, and the dual objective could then fall and cycle,
		// so such a column is pivoted in: it becomes basic beyond its
		// bound, a violated row for a later iteration, and the objective
		// rises by θ·violation.
		span := f.hi[q] - f.lo[q]
		if s.status[q] != stFree && !math.IsInf(span, 1) && math.Abs(deltaQ) > span+eps && math.Abs(s.d[q]) <= feasTol {
			step := span
			if deltaQ < 0 {
				step = -span
			}
			for _, i := range s.pat {
				s.xB[i] -= step * w[i]
			}
			// A bound flip moves no reduced cost.
			if s.status[q] == stLower {
				s.status[q] = stUpper
			} else {
				s.status[q] = stLower
			}
			if slices.Contains(s.flipped, int32(q)) {
				cycling = true
			} else {
				s.flipped = append(s.flipped, int32(q))
			}
			s.iters++
			s.dualIters++
			s.flips++
			continue
		}
		enterVal := s.nbValue(q) + deltaQ
		for _, i := range s.pat {
			if int(i) == r {
				continue
			}
			s.xB[i] -= deltaQ * w[i]
		}
		// Update the reduced costs along the pivot row: the entering
		// column's drops to zero and the leaving column (α = 1) takes −θ.
		theta := s.d[q] / alphaQ
		for j, a := range alphas {
			if a != 0 && s.status[j] != stBasic {
				s.d[j] -= theta * a
			}
		}
		leave := s.basis[r]
		s.d[q], s.d[leave] = 0, -theta
		if below {
			s.status[leave] = stLower
		} else {
			s.status[leave] = stUpper
		}
		s.etaUpdate(r, q, w)
		s.dualIters++
		s.xB[r] = enterVal
	}
	return IterLimit
}

// cutDual is the result of a dual() the deadline stopped, handed back
// instead of lost: the current basis's objective, which is a lower bound
// (weak duality) only while the basis is dual feasible. dual() keeps it
// so (it flips only columns with a zero reduced cost), but the
// maintained reduced costs drift, so DualFeasible is checked on a fresh
// BTRAN, not assumed.
func (s *revised) cutDual() Solution {
	return Solution{
		Status:       IterLimit,
		Iters:        s.iters,
		Objective:    s.objValue(),
		DualFeasible: s.dualFeasible(),
	}
}

// solveRevised is the driver behind Solve and the two Obs entry points. With
// a warm basis it tries, in order: pure primal phase 2 (basis still
// primal feasible), dual simplex (basis dual feasible after a bound
// change — the B&B child case), and otherwise falls back to a cold
// two-phase solve. countWarm controls whether warm-start hit/miss
// counters are emitted (true only for SolveWarmDeadlineObs). One pooled
// workspace serves the whole solve, a cold restart included, and goes
// back to the pool on every return.
func solveRevised(p *Problem, warm *Basis, countWarm bool, deadline time.Time, o Observer) (sol Solution, err error) {
	s, ferr := getRevised(p, deadline)
	if ferr != nil {
		return Solution{}, ferr
	}
	// Deferred calls run last-registered first: the observer reads the
	// workspace's counters before release hands it to another solve.
	defer s.release()
	warmHit := false
	extraIters := 0
	dualItersPrev, flipsPrev, refacPrev := 0, 0, 0
	if o != nil {
		defer func() {
			o.Add("lp.solves", 1)
			o.Add("lp.pivots", int64(sol.Iters))
			o.Add("lp.pivots.dual", int64(dualItersPrev+s.dualIters))
			o.Add("lp.pivots.flip", int64(flipsPrev+s.flips))
			o.Add("lp.refactorizations", int64(refacPrev+s.refactors))
			if countWarm {
				if warmHit {
					o.Add("lp.warmstart.hits", 1)
				} else {
					o.Add("lp.warmstart.misses", 1)
				}
			}
		}()
	}

	finishPhase2 := func() (Solution, error) {
		st := s.primal(false)
		res := Solution{Status: st, Iters: extraIters + s.iters, DualFeasible: st == Optimal}
		switch st {
		case Optimal:
			// Recompute basic values once from the current inverse to
			// shed incremental drift before extraction.
			s.computeXB()
			res.X = s.extract()
			res.Objective = dot(p.obj, res.X)
			res.Basis = s.exportBasis()
			return res, nil
		case IterLimit:
			if s.primalFeasible() {
				// Deadline or stall mid-phase-2: the current iterate is
				// feasible, return it rather than discarding the work.
				s.computeXB()
				res.X = s.extract()
				res.Objective = dot(p.obj, res.X)
			}
			return res, fmt.Errorf("phase 2: %v: %w", st, ErrNoSolution)
		default:
			return res, fmt.Errorf("phase 2: %v: %w", st, ErrNoSolution)
		}
	}

	if warm != nil {
		if s.importBasis(warm) == nil {
			switch {
			case s.primalFeasible():
				warmHit = true
				return finishPhase2()
			case s.dualFeasible():
				st := s.dual()
				switch st {
				case Optimal:
					warmHit = true
					return finishPhase2()
				case Infeasible:
					warmHit = true
					sol = Solution{Status: Infeasible, Iters: s.iters}
					return sol, fmt.Errorf("infeasible: %w", ErrNoSolution)
				case IterLimit:
					if s.deadlineHit {
						warmHit = true
						sol = s.cutDual()
						return sol, fmt.Errorf("dual simplex: %v: %w", st, ErrNoSolution)
					}
					// Numerical stall: abandon the warm state, go cold.
				}
			}
			// Neither primal nor dual feasible (or dual stalled): the
			// import bought nothing — cold restart, counted as a miss.
		}
		extraIters = s.iters
		dualItersPrev, flipsPrev, refacPrev = s.dualIters, s.flips, s.refactors
		s.reset(deadline)
	}

	s.initSlackBasis()
	if !s.primalFeasible() {
		st := s.primal(true)
		if st != Optimal {
			sol = Solution{Status: st, Iters: extraIters + s.iters}
			if st == Infeasible {
				return sol, fmt.Errorf("infeasible: %w", ErrNoSolution)
			}
			return sol, fmt.Errorf("phase 1: %v: %w", st, ErrNoSolution)
		}
	}
	return finishPhase2()
}
