package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// fixed reports whether column j's bounds coincide. A fixed column has
// one value under either nonbasic status, so it can never move: pricing
// and the dual ratio test never bring it in, and dualFeasible accepts
// its reduced cost at either sign.
func (f *stdForm) fixed(j int) bool { return f.hi[j]-f.lo[j] < 1e-12 }

// loadForm points s.f at p's shared shape and copies p's cost and
// bounds into the workspace's per-solve arrays.
func (s *revised) loadForm(p *Problem) error {
	for v := 0; v < p.numVars; v++ {
		if p.lower[v] > p.upper[v] {
			return fmt.Errorf("var %d: inverted bounds", v)
		}
	}
	sh := p.form
	sh.once.Do(func() { sh.err = sh.build(p) })
	if sh.err != nil {
		return sh.err
	}
	f := &s.form
	f.shape = sh
	f.cost = zeroed(f.cost, sh.n)
	f.lo = zeroed(f.lo, sh.n)
	f.hi = zeroed(f.hi, sh.n)
	copy(f.cost, p.obj)
	copy(f.lo, p.lower)
	copy(f.hi, p.upper)
	copy(f.lo[sh.nStruct:], sh.slackLo)
	copy(f.hi[sh.nStruct:], sh.slackHi)
	s.f = f
	return nil
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
// Etas are immutable once appended. Every eta lives in its workspace's
// arena (revised.etaIdx/etaVal) and dies with the next rebuild; none
// leaves the solve (a Basis carries no factorization).
type eta struct {
	r       int32
	invDiag float64
	idx     []int32   // rows i ≠ r with w_i ≠ 0
	val     []float64 // the w_i
}

// Basis is an exported simplex basis: the status of every standard-form
// column, stBasic for the m basic ones and the bound it sits at for the
// rest. It can be taken from an optimal Solution and passed to
// SolveWarmDeadlineObs to warm-start a re-solve of a problem with the
// same constraint structure (same rows, same columns) and possibly
// different bounds — the branch-and-bound child case. It carries no
// factorization: importing it refactorizes, whose result depends only
// on the basic set. A Basis is immutable once created; concurrent reads
// are safe (B&B siblings share their parent's Basis).
type Basis struct {
	rows   int
	status []int8
}

// revised is the mutable solver state for one solve. Workspaces are
// pooled (getRevised, release): every slice below is resized per
// problem and reused by later solves, so nothing a Solution returns may
// point into one.
type revised struct {
	f        *stdForm // &form while loaded
	form     stdForm
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
	work     []float64
	pat      []int32
	patDense bool
	inPat    []bool
	// etaIdx/etaVal are the arena every appended eta's idx/val is a
	// capacity-clipped window of. Only the etas since the last reset of
	// the eta file live there, so initSlackBasis and refactorize empty
	// it.
	etaIdx []int32
	etaVal []float64
	ybuf   []float64 // dual-price scratch, len m
	rbuf   []float64 // dual-simplex row scratch, len m
	alpha  []float64 // dual-simplex pivot row ρ·A, len n
	d      []float64 // reduced costs c − y·A of nonbasic columns, len n
	// dFactor is the rebuild count (refactors) of the factorization d
	// belongs to, -1 when d is stale. reducedCosts sets it; dual() keeps
	// d current across its pivots and recomputes it after a rebuild. A
	// primal pivot leaves d behind, so none may come between a
	// reducedCosts and a dual() that reuses it.
	dFactor     int
	deadlineHit bool
	// flipped lists the columns dual() has bound-flipped since the basis
	// last changed (etaUpdate and refactorize clear it); a repeat is a
	// flip cycle.
	flipped []int32
	flips   int // dual iterations that were bound flips
	// Scratch of refactorize.
	assigned          []bool
	newBasis          []int
	pending, deferred []int
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

var revisedPool = sync.Pool{New: func() any { return new(revised) }}

// getRevised takes a workspace from the pool and loads p's standard
// form into it, ready for initSlackBasis or importBasis.
func getRevised(p *Problem, deadline time.Time) (*revised, error) {
	s := revisedPool.Get().(*revised)
	if err := s.loadForm(p); err != nil {
		s.release()
		return nil, err
	}
	s.reset(deadline)
	return s, nil
}

// reset returns the solver state over the loaded form to what a freshly
// allocated one holds: every buffer sized to the form and zeroed, no
// etas, no counters.
func (s *revised) reset(deadline time.Time) {
	m, n := s.f.m, s.f.n
	s.basis = zeroed(s.basis, m)
	s.rowOf = zeroed(s.rowOf, n)
	s.status = zeroed(s.status, n)
	s.xB = zeroed(s.xB, m)
	s.work = zeroed(s.work, m)
	if cap(s.pat) < m {
		s.pat = make([]int32, 0, m)
	}
	s.pat, s.patDense = s.pat[:0], false
	s.inPat = zeroed(s.inPat, m)
	s.ybuf = zeroed(s.ybuf, m)
	s.rbuf = zeroed(s.rbuf, m)
	s.alpha = zeroed(s.alpha, n)
	s.d = zeroed(s.d, n)
	s.dFactor = -1
	s.flipped = s.flipped[:0]
	s.resetEtas()
	s.etasBase, s.nnzBase = 0, 0
	s.deadline, s.deadlineHit = deadline, false
	s.iters, s.dualIters, s.refactors, s.flips = 0, 0, 0, 0
	s.maxIters = 2000 + 50*(m+n)
	if s.maxIters > 60000 {
		s.maxIters = 60000
	}
}

// release drops the workspace's reference to the problem, then returns
// it to the pool.
func (s *revised) release() {
	s.f, s.form.shape = nil, nil
	revisedPool.Put(s)
}

// resetEtas empties the eta file and its arena. The budget marks
// etasBase and nnzBase are the caller's to set.
func (s *revised) resetEtas() {
	s.etas = s.etas[:0]
	s.etaIdx, s.etaVal = s.etaIdx[:0], s.etaVal[:0]
	s.etaNnz = 0
}

// zeroed returns b resized to n zero elements, reusing its array when
// that is large enough.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
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
	s.resetEtas()
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
// It takes every term, zero or not, with no branch on the data: a zero
// y_i subtracts ±0 from acc, which leaves any nonzero acc bit-equal and
// can change only the sign of an exact-zero result. The terms keep
// their order, so every other value is the one a loop skipping zeros
// computes.
func (s *revised) btranInPlace(y []float64) {
	for k := len(s.etas) - 1; k >= 0; k-- {
		e := &s.etas[k]
		val := e.val[:len(e.idx)]
		acc := y[e.r]
		for p, i := range e.idx {
			acc -= y[i] * val[p]
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
// FTRAN result. The eta's entries go to the end of the arena; when the
// arena grows, the etas already in the file keep the old array.
func (s *revised) appendEta(r int, w []float64) {
	idx, val := s.etaIdx, s.etaVal
	start := len(idx)
	for _, i := range s.pat {
		if int(i) != r && math.Abs(w[i]) > 1e-12 {
			idx = append(idx, i)
			val = append(val, w[i])
		}
	}
	end := len(idx)
	s.etaIdx, s.etaVal = idx, val
	s.etas = append(s.etas, eta{
		r:       int32(r),
		invDiag: 1 / w[r],
		idx:     idx[start:end:end],
		val:     val[start:end:end],
	})
	s.etaNnz += end - start
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
	s.flipped = s.flipped[:0]
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
	s.resetEtas()
	s.flipped = s.flipped[:0]
	assigned := zeroed(s.assigned, f.m)
	newBasis := zeroed(s.newBasis, f.m)
	pending := s.pending[:0]
	s.assigned, s.newBasis = assigned, newBasis
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
	// FTRANs of the denser columns processed later. The tie-break on
	// column index makes the order total, so the rebuild is
	// deterministic.
	slices.SortStableFunc(pending, func(a, b int) int {
		if c := cmp.Compare(len(f.cols[a].idx), len(f.cols[b].idx)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	deferred := s.deferred[:0]
	for len(pending) > 0 {
		deferred = deferred[:0]
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
			s.pending, s.deferred = pending, deferred
			return fmt.Errorf("singular basis (%d columns unpivotable)", len(deferred))
		}
		pending, deferred = deferred, pending
	}
	s.pending, s.deferred = pending, deferred
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

// exportBasis snapshots the current column statuses for reuse by a
// later warm-started solve.
func (s *revised) exportBasis() *Basis {
	return &Basis{rows: s.f.m, status: slices.Clone(s.status)}
}

// importBasis loads a prior basis: the columns it marks basic, in
// column order, then a refactorization, which places them in rows
// itself. Nonbasic statuses are repaired against the (possibly
// tightened) bounds. Returns an error when the basis does not fit this
// problem, does not mark exactly m columns basic, or is singular.
func (s *revised) importBasis(b *Basis) error {
	f := s.f
	if b == nil || b.rows != f.m || len(b.status) != f.n {
		return fmt.Errorf("basis shape mismatch")
	}
	i := 0
	for j, st := range b.status {
		s.rowOf[j] = -1
		// Basic columns take rows in column order; repair nonbasic
		// statuses that no longer point at a finite bound.
		switch st {
		case stBasic:
			if i == f.m {
				return fmt.Errorf("basis marks more than %d columns basic", f.m)
			}
			s.basis[i] = j
			s.rowOf[j] = int32(i)
			i++
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
		}
		s.status[j] = st
	}
	if i != f.m {
		return fmt.Errorf("basis marks %d of %d columns basic", i, f.m)
	}
	if err := s.refactorize(); err != nil {
		return err
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
// reduced-cost sign conditions for the phase-2 objective. Fixed columns
// are exempt: their value is the same at either bound, so a reduced
// cost of either sign leaves the basis optimal once primal feasible,
// and the objective a lower bound (weak duality) before.
func (s *revised) dualFeasible() bool {
	s.reducedCosts()
	for j, d := range s.d {
		if s.f.fixed(j) {
			continue
		}
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
	s.dFactor = s.refactors
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
