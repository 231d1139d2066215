package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file implements a bounded-variable revised simplex method with
// sparse column storage and a product-form (eta-file) basis: B^{-1} is
// never materialized, it is represented as a sequence of sparse eta
// transformations applied by FTRAN/BTRAN. Pricing is Dantzig with a
// Bland fallback, and a dual-simplex loop (revised_iter.go) re-solves
// warm-started problems after bound changes — the branch-and-bound
// child case. Periodic refactorization rebuilds the eta file from the
// basis columns to contain both drift and eta-file growth.
//
// The dense full-tableau solver in tableau.go is kept as the reference
// implementation; differential tests assert the two agree.

// Nonbasic/basic status codes for columns of the standard form.
const (
	stBasic int8 = iota
	stLower      // nonbasic at lower bound
	stUpper      // nonbasic at upper bound
	stFree       // nonbasic free (value 0)
)

// spVec is one sparse column (row indices) or row (column indices) of
// the standard-form matrix, in ascending index order.
type spVec struct {
	idx []int32
	val []float64
}

// stdForm is the equality standard form min c·x s.t. Ax = b, lo ≤ x ≤ hi,
// with one slack column per row. Unlike the dense tableau it does not
// shift lower bounds or flip row signs, so the structure depends only on
// the constraint pattern — a parent and a child that differ only in
// variable bounds share the same standard form shape, which is what
// makes basis reuse across B&B nodes valid. Only cost and bounds are
// per solve; the rest is the shared *shape.
//
// The dense solver's anti-degeneracy RHS perturbation (loosen inequality
// i by delta_i = 1e-9*(i+1)) is reproduced here as slack bounds:
// LE rows get slack ∈ [−delta, +inf), GE rows slack ∈ (−inf, +delta],
// EQ rows slack ∈ [0, 0]. Row equilibration matches the dense rule.
type stdForm struct {
	*shape
	cost   []float64
	lo, hi []float64
}

// shape is the part of the standard form that depends only on the
// constraints: the equilibrated matrix by column and by row (each row
// ending in its slack's +1), b, and the slack bounds. A Problem and its
// clones share one shape, built by the first solve that needs it, until
// AddConstraint gives the adding problem a new one.
type shape struct {
	once    sync.Once
	err     error
	m, n    int // rows, total columns (structural + slacks)
	nStruct int
	cols    []spVec
	rows    []spVec
	b       []float64
	// slackLo/slackHi are the bounds of slack column nStruct+i.
	slackLo, slackHi []float64
}

// newStdForm pairs p's shared shape with a copy of its cost and bounds.
func newStdForm(p *Problem) (*stdForm, error) {
	for v := 0; v < p.numVars; v++ {
		if p.lower[v] > p.upper[v] {
			return nil, fmt.Errorf("var %d: inverted bounds", v)
		}
	}
	sh := p.form
	sh.once.Do(func() { sh.err = sh.build(p) })
	if sh.err != nil {
		return nil, sh.err
	}
	f := &stdForm{
		shape: sh,
		cost:  make([]float64, sh.n),
		lo:    make([]float64, sh.n),
		hi:    make([]float64, sh.n),
	}
	copy(f.cost, p.obj)
	copy(f.lo, p.lower)
	copy(f.hi, p.upper)
	copy(f.lo[sh.nStruct:], sh.slackLo)
	copy(f.hi[sh.nStruct:], sh.slackHi)
	return f, nil
}

func (f *shape) build(p *Problem) error {
	m := len(p.cons)
	f.m, f.n, f.nStruct = m, p.numVars+m, p.numVars
	f.cols = make([]spVec, f.n)
	f.rows = make([]spVec, m)
	f.b = make([]float64, m)
	f.slackLo = make([]float64, m)
	f.slackHi = make([]float64, m)
	// Aggregate duplicate terms per row deterministically with a dense
	// scratch vector + touched list (no map iteration).
	scratch := make([]float64, p.numVars)
	touched := make([]int, 0, 16)
	for i, c := range p.cons {
		touched = touched[:0]
		for _, t := range c.Terms {
			if scratch[t.Var] == 0 {
				touched = append(touched, t.Var)
			}
			scratch[t.Var] += t.Coef
		}
		// Row equilibration, same rule as the dense tableau: scale so the
		// largest structural coefficient has magnitude ~1 when the row is
		// badly out of range.
		maxAbs := 0.0
		for _, v := range touched {
			if a := math.Abs(scratch[v]); a > maxAbs {
				maxAbs = a
			}
		}
		scale := 1.0
		if maxAbs > 0 && (maxAbs > 16 || maxAbs < 1.0/16) {
			scale = 1 / maxAbs
		}
		// Touched order follows first appearance in Terms; sort into
		// ascending var order for deterministic sparse columns. Rows are
		// visited in index order so each column's row indices arrive
		// already sorted.
		insertionSortInts(touched)
		row := spVec{idx: make([]int32, 0, len(touched)+1), val: make([]float64, 0, len(touched)+1)}
		for _, v := range touched {
			coef := scratch[v] * scale
			scratch[v] = 0
			if coef == 0 {
				continue
			}
			f.cols[v].idx = append(f.cols[v].idx, int32(i))
			f.cols[v].val = append(f.cols[v].val, coef)
			row.idx = append(row.idx, int32(v))
			row.val = append(row.val, coef)
		}
		// Slack column: +1 entry in row i (the row is scaled, the slack
		// is not — equivalent to scaling the slack's bounds, which are
		// the perturbation deltas; keep coefficient 1 and scale deltas).
		sj := p.numVars + i
		f.cols[sj] = spVec{idx: []int32{int32(i)}, val: []float64{1}}
		f.rows[i] = spVec{idx: append(row.idx, int32(sj)), val: append(row.val, 1)}
		f.b[i] = c.RHS * scale
		delta := 1e-9 * float64(i+1) * scale
		switch c.Rel {
		case LE:
			f.slackLo[i], f.slackHi[i] = -delta, math.Inf(1)
		case GE:
			f.slackLo[i], f.slackHi[i] = math.Inf(-1), delta
		case EQ:
			f.slackLo[i], f.slackHi[i] = 0, 0
		default:
			return fmt.Errorf("unknown relation %v", c.Rel)
		}
	}
	return nil
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// eta is one product-form transformation: replacing the basic column of
// row r by a column whose FTRAN image was w turns B^{-1} into E·B^{-1}
// with E = I except column r. Applying E to a vector x is
//
//	x[r] /= w_r;  x[i] -= w_i * x[r]  (i ≠ r)
//
// stored sparsely as invDiag = 1/w_r and the nonzero off-diagonal w_i.
// Etas are immutable once appended; warm-started children share their
// parent's eta prefix by slice copy.
type eta struct {
	r       int32
	invDiag float64
	idx     []int32   // rows i ≠ r with w_i ≠ 0
	val     []float64 // the w_i
}

// Basis is an exported simplex basis: which column is basic in each row
// and the bound status of every column. It can be taken from an optimal
// Solution and passed to SolveWarmDeadlineObs to warm-start a re-solve of a
// problem with the same constraint structure (same rows, same columns)
// and possibly different bounds — the branch-and-bound child case.
//
// Alongside the combinatorial basis it carries the eta-file
// representation of B^{-1}, so importing costs a slice copy rather than
// a refactorization; etaNnz tracks its size so overly long or dense
// files are rebuilt on import instead. A Basis is immutable once
// created; concurrent reads are safe (B&B siblings share their
// parent's Basis).
type Basis struct {
	rows, cols int
	basic      []int32
	status     []int8
	etas       []eta
	etaNnz     int
}

// Rows reports the constraint-row count the basis was built for.
func (b *Basis) Rows() int { return b.rows }

// revised is the mutable solver state for one solve.
type revised struct {
	f        *stdForm
	basis    []int   // basis[i] = column basic in row i
	rowOf    []int32 // rowOf[j] = row where j is basic, -1 if nonbasic
	status   []int8
	etas     []eta     // B^{-1} = E_k ··· E_1 (slack basis start)
	etaNnz   int       // total off-diagonal nonzeros across etas
	etasBase int       // len(etas) right after the last refactorization
	nnzBase  int       // etaNnz right after the last refactorization
	xB       []float64 // values of basic variables

	deadline  time.Time
	iters     int // total pivots (primal + dual)
	dualIters int
	refactors int
	maxIters  int
	// work holds the last FTRAN result and pat its possibly nonzero
	// rows; patDense records that pat was read off a dense pass, so the
	// next FTRAN clears all of work. inPat is ftran's mark scratch.
	work        []float64
	pat         []int32
	patDense    bool
	inPat       []bool
	etaIdx      []int32   // appendEta scratch, len m
	etaVal      []float64 // appendEta scratch, len m
	ybuf        []float64 // dual-price scratch, len m
	rbuf        []float64 // dual-simplex row scratch, len m
	alpha       []float64 // dual-simplex pivot row ρ·A, len n
	d           []float64 // reduced costs c − y·A of nonbasic columns, len n
	deadlineHit bool
}

const feasTol = 1e-7

// etaOverBudget decides when to rebuild the eta file. Both triggers are
// relative to the state right after the previous refactorization: a
// rebuilt file inherently carries fill-in, so an absolute nnz cap would
// re-trip immediately and degrade the solver to one O(m·nnz) rebuild
// per pivot. Instead we allow a fixed number of incremental etas per
// cycle (amortizing the rebuild) and a doubling of the nonzero mass
// (shedding fill-in and floating-point drift).
func (s *revised) etaOverBudget() bool {
	m := s.f.m
	if len(s.etas)-s.etasBase > 96+m/16 {
		return true
	}
	return s.etaNnz > 2*s.nnzBase+8*m+1024
}

func newRevised(f *stdForm, deadline time.Time) *revised {
	s := &revised{
		f:        f,
		basis:    make([]int, f.m),
		rowOf:    make([]int32, f.n),
		status:   make([]int8, f.n),
		xB:       make([]float64, f.m),
		work:     make([]float64, f.m),
		pat:      make([]int32, 0, f.m),
		inPat:    make([]bool, f.m),
		etaIdx:   make([]int32, 0, f.m),
		etaVal:   make([]float64, 0, f.m),
		ybuf:     make([]float64, f.m),
		rbuf:     make([]float64, f.m),
		alpha:    make([]float64, f.n),
		d:        make([]float64, f.n),
		deadline: deadline,
	}
	s.maxIters = 2000 + 50*(f.m+f.n)
	if s.maxIters > 60000 {
		s.maxIters = 60000
	}
	return s
}

// initSlackBasis sets the all-slack basis: B = I (empty eta file),
// structural columns nonbasic at their finite bound (lower preferred),
// slacks basic.
func (s *revised) initSlackBasis() {
	f := s.f
	for j := 0; j < f.n; j++ {
		s.rowOf[j] = -1
		switch {
		case !math.IsInf(f.lo[j], -1):
			s.status[j] = stLower
		case !math.IsInf(f.hi[j], 1):
			s.status[j] = stUpper
		default:
			s.status[j] = stFree
		}
	}
	for i := 0; i < f.m; i++ {
		j := f.nStruct + i
		s.basis[i] = j
		s.rowOf[j] = int32(i)
		s.status[j] = stBasic
	}
	s.etas = s.etas[:0]
	s.etaNnz = 0
	s.etasBase, s.nnzBase = 0, 0
	s.computeXB()
}

// nbValue returns the value of nonbasic column j given its status.
func (s *revised) nbValue(j int) float64 {
	switch s.status[j] {
	case stLower:
		return s.f.lo[j]
	case stUpper:
		return s.f.hi[j]
	default:
		return 0
	}
}

// ftranEtas applies the product of etas, in order, to x (len m).
func ftranEtas(x []float64, etas []eta) {
	for k := range etas {
		e := &etas[k]
		t := x[e.r]
		if t == 0 {
			continue
		}
		t *= e.invDiag
		x[e.r] = t
		for p, i := range e.idx {
			x[i] -= e.val[p] * t
		}
	}
}

// btranInPlace applies y ← y·B^{-1} through the eta file in reverse.
func (s *revised) btranInPlace(y []float64) {
	for k := len(s.etas) - 1; k >= 0; k-- {
		e := &s.etas[k]
		acc := y[e.r]
		for p, i := range e.idx {
			if v := y[i]; v != 0 {
				acc -= v * e.val[p]
			}
		}
		y[e.r] = acc * e.invDiag
	}
}

// computeXB recomputes basic values xB = B^{-1}(b − N·xN) from scratch.
func (s *revised) computeXB() {
	f := s.f
	bt := s.xB // fill in place, then transform
	copy(bt, f.b)
	for j := 0; j < f.n; j++ {
		if s.status[j] == stBasic {
			continue
		}
		v := s.nbValue(j)
		if v == 0 {
			continue
		}
		c := &f.cols[j]
		for k, r := range c.idx {
			bt[r] -= c.val[k] * v
		}
	}
	ftranEtas(bt, s.etas)
}

// ftran computes w = B^{-1} A_q into s.work and returns it, with s.pat
// listing in ascending order a superset of its nonzero rows. Callers
// visit only those: every row outside holds zero, and an ascending walk
// meets the nonzeros in the order a dense scan would, so every sum and
// tie-break is unchanged. A sparse result tracks the rows it writes,
// sorts them, and is cleared through them next time. Once the pattern
// reaches m/16 rows, sorting would cost more than a scan: tracking
// stops, and the pattern is read off w by one pass over all m rows.
func (s *revised) ftran(q int) []float64 {
	w, inPat := s.work, s.inPat
	if s.patDense {
		clear(w)
	} else {
		for _, i := range s.pat {
			w[i] = 0
		}
	}
	limit := s.f.m / 16
	pat := s.pat[:0]
	c := &s.f.cols[q]
	for t, r := range c.idx {
		w[r], inPat[r] = c.val[t], true
		pat = append(pat, r)
	}
	k := 0
	for ; k < len(s.etas) && len(pat) < limit; k++ {
		e := &s.etas[k]
		t := w[e.r]
		if t == 0 {
			continue
		}
		t *= e.invDiag
		w[e.r] = t
		for p, i := range e.idx {
			if !inPat[i] {
				inPat[i] = true
				pat = append(pat, i)
			}
			w[i] -= e.val[p] * t
		}
	}
	for _, i := range pat {
		inPat[i] = false
	}
	s.patDense = len(pat) >= limit
	if s.patDense {
		ftranEtas(w, s.etas[k:])
		pat = pat[:0]
		for i, v := range w {
			if v != 0 {
				pat = append(pat, int32(i))
			}
		}
	} else {
		slices.Sort(pat)
	}
	s.pat = pat
	return w
}

// appendEta records the product-form update for entering column q
// replacing the basic column of row r, where w = B^{-1} A_q is the last
// FTRAN result.
func (s *revised) appendEta(r int, w []float64) {
	idx, val := s.etaIdx[:0], s.etaVal[:0]
	for _, i := range s.pat {
		if int(i) != r && math.Abs(w[i]) > 1e-12 {
			idx = append(idx, i)
			val = append(val, w[i])
		}
	}
	s.etas = append(s.etas, eta{
		r:       int32(r),
		invDiag: 1 / w[r],
		idx:     append(make([]int32, 0, len(idx)), idx...),
		val:     append(make([]float64, 0, len(val)), val...),
	})
	s.etaNnz += len(idx)
}

// etaUpdate applies the basis bookkeeping and the eta append for
// entering column q replacing the basic column of row r.
func (s *revised) etaUpdate(r, q int, w []float64) {
	s.appendEta(r, w)
	leave := s.basis[r]
	s.rowOf[leave] = -1
	s.basis[r] = q
	s.rowOf[q] = int32(r)
	s.status[q] = stBasic
	s.iters++
}

// refactorize rebuilds the eta file from the basis columns: starting
// from the identity (all-slack) scaffold, each basic column is pivoted
// into some still-unassigned row, choosing the largest available pivot
// element (ties to the lowest row). The row a column lands in is the
// algorithm's choice — only the basic SET is fixed — so the basis
// bookkeeping is re-permuted to match. Basic slacks whose own row is
// free are assigned there eta-free; columns whose pivot candidates are
// all canceled are deferred to a later pass. Returns an error if the
// basis matrix is numerically singular.
func (s *revised) refactorize() error {
	f := s.f
	s.refactors++
	s.etas = s.etas[:0]
	s.etaNnz = 0
	assigned := make([]bool, f.m)
	newBasis := make([]int, f.m)
	var pending []int
	for i := 0; i < f.m; i++ {
		j := s.basis[i]
		if j >= f.nStruct && !assigned[j-f.nStruct] {
			// A basic slack sits in its own scaffold row for free.
			r := j - f.nStruct
			assigned[r] = true
			newBasis[r] = j
		} else {
			pending = append(pending, j)
		}
	}
	// Sparsest columns first (a static Markowitz-style ordering): early
	// etas then touch few rows, which sharply limits fill-in in the
	// FTRANs of the denser columns processed later. Stable tie-break on
	// column index keeps the rebuild deterministic.
	sort.SliceStable(pending, func(a, b int) bool {
		na, nb := len(f.cols[pending[a]].idx), len(f.cols[pending[b]].idx)
		if na != nb {
			return na < nb
		}
		return pending[a] < pending[b]
	})
	for len(pending) > 0 {
		var deferred []int
		progressed := false
		for _, j := range pending {
			w := s.ftran(j)
			r, piv := -1, 1e-10
			for _, i := range s.pat {
				if assigned[i] {
					continue
				}
				if a := math.Abs(w[i]); a > piv {
					r, piv = int(i), a
				}
			}
			if r < 0 {
				deferred = append(deferred, j)
				continue
			}
			s.appendEta(r, w)
			assigned[r] = true
			newBasis[r] = j
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("singular basis (%d columns unpivotable)", len(deferred))
		}
		pending = deferred
	}
	copy(s.basis, newBasis)
	for i, j := range s.basis {
		s.rowOf[j] = int32(i)
	}
	s.etasBase = len(s.etas)
	s.nnzBase = s.etaNnz
	return nil
}

// maybeRefactor refactorizes when the eta file outgrows its budget.
// On singularity it reports the error so callers can abandon the solve.
func (s *revised) maybeRefactor() error {
	if !s.etaOverBudget() {
		return nil
	}
	if err := s.refactorize(); err != nil {
		return err
	}
	s.computeXB()
	return nil
}

// deadlineExpired samples the wall clock; called between pivots.
func (s *revised) deadlineExpired() bool {
	if s.deadline.IsZero() {
		return false
	}
	if time.Now().After(s.deadline) {
		s.deadlineHit = true
		return true
	}
	return false
}

// extract reads structural values from the current iterate.
func (s *revised) extract() []float64 {
	x := make([]float64, s.f.nStruct)
	for j := 0; j < s.f.nStruct; j++ {
		if s.status[j] == stBasic {
			x[j] = s.xB[s.rowOf[j]]
		} else {
			x[j] = s.nbValue(j)
		}
		if math.Abs(x[j]) < eps {
			x[j] = 0
		}
	}
	return x
}

// objValue is c·x at the current iterate over all standard-form columns
// (slack costs are zero, so this equals the structural objective).
func (s *revised) objValue() float64 {
	z := 0.0
	for j := 0; j < s.f.nStruct; j++ {
		if s.f.cost[j] == 0 {
			continue
		}
		var v float64
		if s.status[j] == stBasic {
			v = s.xB[s.rowOf[j]]
		} else {
			v = s.nbValue(j)
		}
		z += s.f.cost[j] * v
	}
	return z
}

// exportBasis snapshots the current basis (sharing the immutable eta
// file) for reuse by a later warm-started solve.
func (s *revised) exportBasis() *Basis {
	b := &Basis{
		rows:   s.f.m,
		cols:   s.f.n,
		basic:  make([]int32, s.f.m),
		status: make([]int8, s.f.n),
		etas:   append([]eta(nil), s.etas...),
		etaNnz: s.etaNnz,
	}
	for i, j := range s.basis {
		b.basic[i] = int32(j)
	}
	copy(b.status, s.status)
	return b
}

// importBasis loads a prior basis, validating shape and repairing
// nonbasic statuses against the (possibly tightened) bounds. Returns an
// error when the basis does not fit this problem or is singular.
func (s *revised) importBasis(b *Basis) error {
	f := s.f
	if b == nil || b.rows != f.m || b.cols != f.n {
		return fmt.Errorf("basis shape mismatch")
	}
	seen := make([]bool, f.n)
	for i := 0; i < f.m; i++ {
		j := int(b.basic[i])
		if j < 0 || j >= f.n || seen[j] {
			return fmt.Errorf("invalid basis column %d", j)
		}
		seen[j] = true
	}
	for j := 0; j < f.n; j++ {
		s.rowOf[j] = -1
		st := b.status[j]
		// Repair statuses that no longer point at a finite bound.
		switch st {
		case stLower:
			if math.IsInf(f.lo[j], -1) {
				if math.IsInf(f.hi[j], 1) {
					st = stFree
				} else {
					st = stUpper
				}
			}
		case stUpper:
			if math.IsInf(f.hi[j], 1) {
				if math.IsInf(f.lo[j], -1) {
					st = stFree
				} else {
					st = stLower
				}
			}
		case stFree:
			if !math.IsInf(f.lo[j], -1) {
				st = stLower
			} else if !math.IsInf(f.hi[j], 1) {
				st = stUpper
			}
		case stBasic:
			// Recorded below from b.basic.
			st = stLower
			if math.IsInf(f.lo[j], -1) {
				st = stFree
			}
		}
		s.status[j] = st
	}
	for i := 0; i < f.m; i++ {
		j := int(b.basic[i])
		s.basis[i] = j
		s.rowOf[j] = int32(i)
		s.status[j] = stBasic
	}
	// Adopt the exporter's eta file when it is within budget (the etas
	// themselves are immutable and safely shared; the slice header is
	// copied so our appends never alias the exporter's file). An
	// oversized file is rebuilt instead.
	s.etas = append(s.etas[:0], b.etas...)
	s.etaNnz = b.etaNnz
	s.etasBase = len(s.etas)
	s.nnzBase = s.etaNnz
	if len(s.etas) > 2*f.m+128 || s.etaNnz > 16*f.m+2048 {
		if err := s.refactorize(); err != nil {
			return err
		}
	}
	s.computeXB()
	return nil
}

// primalFeasible reports whether all basic variables are within bounds.
func (s *revised) primalFeasible() bool {
	f := s.f
	for i, j := range s.basis {
		if s.xB[i] < f.lo[j]-feasTol || s.xB[i] > f.hi[j]+feasTol {
			return false
		}
	}
	return true
}

// dualFeasible reports whether the current basis satisfies the
// reduced-cost sign conditions for the phase-2 objective.
func (s *revised) dualFeasible() bool {
	s.reducedCosts()
	for j, d := range s.d {
		switch s.status[j] {
		case stLower:
			if d < -feasTol {
				return false
			}
		case stUpper:
			if d > feasTol {
				return false
			}
		case stFree:
			if d < -feasTol || d > feasTol {
				return false
			}
		}
	}
	return true
}

// duals computes y = c_B · B^{-1} by BTRAN. For phase 1 the basic costs
// are the composite infeasibility costs (+1 above upper, −1 below
// lower).
func (s *revised) duals(phase1 bool) []float64 {
	f := s.f
	y := s.ybuf
	for i := range y {
		y[i] = 0
	}
	for i, j := range s.basis {
		if phase1 {
			if s.xB[i] > f.hi[j]+feasTol {
				y[i] = 1
			} else if s.xB[i] < f.lo[j]-feasTol {
				y[i] = -1
			}
		} else if c := f.cost[j]; c != 0 {
			y[i] = c
		}
	}
	s.btranInPlace(y)
	return y
}

// reducedCosts sets d_j = c_j − y·A_j for every nonbasic column from a
// fresh BTRAN of the basic costs, and d_j = 0 for basic ones.
func (s *revised) reducedCosts() {
	y := s.duals(false)
	for j := range s.d {
		if s.status[j] == stBasic {
			s.d[j] = 0
		} else {
			s.d[j] = s.f.cost[j] - s.colDot(y, j)
		}
	}
}

// pivotRow computes alpha = ρ·A for rho = e_r · B^{-1} (row r of the
// basis inverse, by BTRAN) row-wise over the rows where ρ ≠ 0. Each
// alpha_j gathers its terms in ascending row order, so it is bit-equal
// to colDot(ρ, j): the zero terms skipped would each add ±0 to a sum
// that starts at +0.
func (s *revised) pivotRow(r int) []float64 {
	rho := s.rbuf
	clear(rho)
	rho[r] = 1
	s.btranInPlace(rho)
	alpha := s.alpha
	clear(alpha)
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		row := &s.f.rows[i]
		for t, j := range row.idx {
			alpha[j] += ri * row.val[t]
		}
	}
	return alpha
}

// colDot computes y · A_j over the sparse column j.
func (s *revised) colDot(y []float64, j int) float64 {
	c := &s.f.cols[j]
	sum := 0.0
	for t, r := range c.idx {
		sum += y[r] * c.val[t]
	}
	return sum
}

// totalInfeas sums bound violations of the basic variables.
func (s *revised) totalInfeas() float64 {
	f := s.f
	tot := 0.0
	for i, j := range s.basis {
		if s.xB[i] > f.hi[j] {
			tot += s.xB[i] - f.hi[j]
		} else if s.xB[i] < f.lo[j] {
			tot += f.lo[j] - s.xB[i]
		}
	}
	return tot
}
