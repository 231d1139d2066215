package lp

import (
	"fmt"
	"math"
)

// tableau is a full-tableau simplex state. Columns are laid out as
// [structural | slack+surplus | artificial | RHS]; rows carry the
// constraint system in canonical form with basis[i] the basic column of
// row i. costP1 and costP2 are the phase-1 and phase-2 objective rows
// (reduced costs, with the last cell holding −z).
type tableau struct {
	rows  [][]float64
	basis []int
	cost1 []float64
	cost2 []float64

	nStruct    int
	nCols      int // total columns including RHS
	artStart   int // first artificial column index
	needPhase1 bool
	lower      []float64 // original lower bounds for extraction
	iters      int
}

func newTableau(p *Problem) (*tableau, error) {
	// Shift every variable by its lower bound so all variables are ≥ 0,
	// and materialize finite upper bounds as extra ≤ rows.
	type row struct {
		coefs []float64 // dense over structural vars
		rel   Rel
		rhs   float64
	}
	n := p.numVars
	rows := make([]row, 0, len(p.cons)+n)
	for _, c := range p.cons {
		r := row{coefs: make([]float64, n), rel: c.Rel, rhs: c.RHS}
		for _, t := range c.Terms {
			r.coefs[t.Var] += t.Coef
			r.rhs -= t.Coef * p.lower[t.Var] // shift
		}
		rows = append(rows, r)
	}
	for v := 0; v < n; v++ {
		if hi := p.upper[v]; !math.IsInf(hi, 1) {
			span := hi - p.lower[v]
			if span < 0 {
				return nil, fmt.Errorf("var %d: inverted bounds", v)
			}
			r := row{coefs: make([]float64, n), rel: LE, rhs: span}
			r.coefs[v] = 1
			rows = append(rows, r)
		}
	}
	// Row equilibration: scale every row so its largest coefficient has
	// magnitude 1. This keeps rows of wildly different units (e.g.
	// memory bytes vs normalized times) numerically comparable in the
	// dense tableau.
	for i := range rows {
		maxAbs := 0.0
		for _, c := range rows[i].coefs {
			if a := math.Abs(c); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > 0 && (maxAbs > 16 || maxAbs < 1.0/16) {
			inv := 1 / maxAbs
			for j := range rows[i].coefs {
				rows[i].coefs[j] *= inv
			}
			rows[i].rhs *= inv
		}
	}
	// Anti-degeneracy perturbation: loosen every inequality by a tiny
	// row-dependent amount. Chains of identical operations produce
	// massively degenerate bases that stall Dantzig pricing; the
	// perturbation breaks the ties. Loosening can only enlarge the
	// feasible region, so feasibility conclusions stay valid, and the
	// objective shifts by O(1e-6) at most.
	for i := range rows {
		delta := 1e-9 * float64(i+1)
		switch rows[i].rel {
		case LE:
			rows[i].rhs += delta
		case GE:
			rows[i].rhs -= delta
		}
	}
	// Normalize all RHS to be nonnegative.
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coefs {
				rows[i].coefs[j] = -rows[i].coefs[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].rel {
			case LE:
				rows[i].rel = GE
			case GE:
				rows[i].rel = LE
			}
		}
	}
	m := len(rows)
	// Count slack/surplus and artificial columns.
	nSlack, nArt := 0, 0
	for _, r := range rows {
		switch r.rel {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		default:
			return nil, fmt.Errorf("unknown relation %v", r.rel)
		}
	}
	t := &tableau{
		rows:     make([][]float64, m),
		basis:    make([]int, m),
		nStruct:  n,
		nCols:    n + nSlack + nArt + 1,
		artStart: n + nSlack,
		lower:    append([]float64(nil), p.lower...),
	}
	slackCol := n
	artCol := t.artStart
	rhsCol := t.nCols - 1
	for i, r := range rows {
		tr := make([]float64, t.nCols)
		copy(tr, r.coefs)
		tr[rhsCol] = r.rhs
		switch r.rel {
		case LE:
			tr[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			tr[slackCol] = -1
			slackCol++
			tr[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			tr[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = tr
	}
	t.needPhase1 = nArt > 0

	// Phase-2 cost row: structural objective, canonical already because
	// initial basic variables (slacks, artificials) have zero phase-2
	// cost.
	t.cost2 = make([]float64, t.nCols)
	copy(t.cost2, p.obj)
	// Phase-1 cost row: +1 per artificial; canonicalize by subtracting
	// each artificial-basic row.
	t.cost1 = make([]float64, t.nCols)
	for c := t.artStart; c < rhsCol; c++ {
		t.cost1[c] = 1
	}
	for i, b := range t.basis {
		if b >= t.artStart {
			for j := range t.cost1 {
				t.cost1[j] -= t.rows[i][j]
			}
		}
	}
	return t, nil
}

func (t *tableau) phase1Objective() float64 {
	return -t.cost1[t.nCols-1]
}

// run executes simplex iterations on the given phase's cost row until
// optimality, unboundedness, or the iteration cap.
func (t *tableau) run(phase1 bool) (Status, int) {
	cost := t.cost2
	if phase1 {
		cost = t.cost1
	}
	rhsCol := t.nCols - 1
	maxIters := 2000 + 50*(len(t.rows)+t.nCols)
	if maxIters > 60000 {
		maxIters = 60000
	}
	// Stall detection: long runs of degenerate pivots (objective not
	// moving) first force Bland's anti-cycling rule, then abort with
	// IterLimit so callers (branch and bound) can move on instead of
	// burning the whole time budget in one relaxation.
	const (
		stallBland = 2000
		stallAbort = 8000
	)
	lastObj := math.Inf(1)
	stall := 0
	for iter := 0; iter < maxIters; iter++ {
		obj := -cost[rhsCol]
		if obj < lastObj-1e-12 {
			lastObj = obj
			stall = 0
		} else {
			stall++
			if stall > stallAbort {
				return IterLimit, iter
			}
		}
		// Entering column: most negative reduced cost (Dantzig), or
		// Bland's rule once we suspect cycling or stalling.
		useBland := iter >= maxIters/2 || stall >= stallBland
		col := -1
		if !useBland {
			best := -epsCost
			for j := 0; j < rhsCol; j++ {
				if !phase1 && j >= t.artStart {
					continue // artificials never re-enter in phase 2
				}
				if cost[j] < best {
					best = cost[j]
					col = j
				}
			}
		} else {
			for j := 0; j < rhsCol; j++ {
				if !phase1 && j >= t.artStart {
					continue
				}
				if cost[j] < -epsCost {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return Optimal, iter
		}
		// Ratio test. Entries below pivTol are ineligible: dividing a
		// dense row by a near-zero pivot amplifies its rounding error
		// into the whole tableau, and after hundreds of pivots the
		// tableau system drifts measurably from the original problem
		// (the skipped variable overshoots its bound by at most
		// pivTol·step — far below feasTol). Near-tied ratios prefer the
		// clearly larger pivot for the same reason, except under Bland's
		// rule, whose anti-cycling proof needs the lowest basis index.
		const pivTol = 1e-7
		row := -1
		bestRatio := math.Inf(1)
		bestA := 0.0
		for i := range t.rows {
			a := t.rows[i][col]
			if a <= pivTol {
				continue
			}
			ratio := t.rows[i][rhsCol] / a
			if row < 0 || ratio < bestRatio-eps {
				bestRatio, row, bestA = ratio, i, a
				continue
			}
			if ratio >= bestRatio+eps {
				continue
			}
			better := false
			if useBland {
				better = t.basis[i] < t.basis[row]
			} else {
				better = a > 4*bestA || (4*a > bestA && t.basis[i] < t.basis[row])
			}
			if better {
				if ratio < bestRatio {
					bestRatio = ratio
				}
				row, bestA = i, a
			}
		}
		if row < 0 {
			return Unbounded, iter
		}
		t.pivot(row, col)
	}
	return IterLimit, maxIters
}

// pivot makes column col basic in row row, updating all rows and both
// cost rows.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i := range t.rows {
		if i == row {
			continue
		}
		f := t.rows[i][col]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	for _, cost := range [][]float64{t.cost1, t.cost2} {
		f := cost[col]
		if f == 0 {
			continue
		}
		for j := range cost {
			cost[j] -= f * pr[j]
		}
		cost[col] = 0
	}
	t.basis[row] = col
}

// dropArtificials removes artificial variables from the basis after a
// successful phase 1. Basic artificials at level zero are pivoted out on
// any eligible non-artificial column; rows that turn out to be redundant
// (all non-artificial entries zero) are deleted.
func (t *tableau) dropArtificials() {
	rhsCol := t.nCols - 1
	var keep []int
	for i := 0; i < len(t.rows); i++ {
		if t.basis[i] < t.artStart {
			keep = append(keep, i)
			continue
		}
		// Pivot on the largest-magnitude eligible entry: the artificial
		// sits at level ~0, so any nonzero column works algebraically,
		// but a near-zero pivot divides the row by it and injects its
		// rounding error into the basis as real infeasibility.
		jBest, aBest := -1, eps
		for j := 0; j < t.artStart; j++ {
			if a := math.Abs(t.rows[i][j]); a > aBest {
				jBest, aBest = j, a
			}
		}
		if jBest >= 0 {
			t.pivot(i, jBest)
			keep = append(keep, i)
		}
		// else: redundant row; drop it below.
	}
	if len(keep) != len(t.rows) {
		rows := make([][]float64, 0, len(keep))
		basis := make([]int, 0, len(keep))
		for _, i := range keep {
			rows = append(rows, t.rows[i])
			basis = append(basis, t.basis[i])
		}
		t.rows = rows
		t.basis = basis
	}
	_ = rhsCol
}

// extract reads structural variable values from the tableau, undoing the
// lower-bound shift.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.nStruct)
	rhsCol := t.nCols - 1
	for i, b := range t.basis {
		if b < t.nStruct {
			x[b] = t.rows[i][rhsCol]
		}
	}
	for j := range x {
		x[j] += t.lower[j]
		if math.Abs(x[j]) < eps {
			x[j] = 0
		}
	}
	return x
}
