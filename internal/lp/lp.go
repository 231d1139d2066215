// Package lp implements simplex solvers for linear programs. It is the
// substrate underneath internal/ilp, which together replace the CPLEX
// dependency of the Pesto paper (§3.2.2 "by solving this 0-1 integer
// programming using standard optimization software like CPLEX").
//
// The solver handles minimization problems over variables with bounds
// (finite or infinite on either side) and ≤, ≥ and = constraints. The
// default engine is a bounded-variable revised simplex with sparse
// column storage and a product-form (eta-file) basis — Dantzig pricing
// with a Bland's-rule anti-cycling fallback, periodic refactorization,
// and warm starts from an exported Basis with a dual-simplex repair
// loop (revised.go / revised_iter.go). The original dense two-phase
// full-tableau solver is retained in tableau.go as the reference
// implementation behind SolveDense and the differential tests.
package lp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Rel is the relation of a linear constraint.
type Rel int

const (
	// LE is a ≤ constraint.
	LE Rel = iota + 1
	// GE is a ≥ constraint.
	GE
	// EQ is an = constraint.
	EQ
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Term is one coefficient of a sparse constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear constraint sum(Terms) Rel RHS.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Problem is a linear program: minimize c·x subject to constraints and
// variable bounds. Construct with NewProblem, then AddConstraint.
type Problem struct {
	numVars int
	obj     []float64
	lower   []float64
	upper   []float64 // math.Inf(1) when unbounded above
	cons    []Constraint
	// form is the standard-form structure of cons, built by the first
	// solve and shared by clones; AddConstraint replaces it.
	form *shape
}

// NewProblem creates a problem with n variables, zero objective, lower
// bounds of 0 and no upper bounds.
func NewProblem(n int) *Problem {
	p := &Problem{
		numVars: n,
		obj:     make([]float64, n),
		lower:   make([]float64, n),
		upper:   make([]float64, n),
		form:    &shape{},
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// NumVars reports the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetObjective sets the coefficient of variable v in the minimization
// objective.
func (p *Problem) SetObjective(v int, c float64) error {
	if v < 0 || v >= p.numVars {
		return fmt.Errorf("objective var %d out of range", v)
	}
	p.obj[v] = c
	return nil
}

// SetBounds sets lower and upper bounds of variable v. Use
// math.Inf(1) for an unbounded upper limit.
func (p *Problem) SetBounds(v int, lo, hi float64) error {
	if v < 0 || v >= p.numVars {
		return fmt.Errorf("bounds var %d out of range", v)
	}
	if lo > hi {
		return fmt.Errorf("bounds var %d: lower %g > upper %g", v, lo, hi)
	}
	p.lower[v] = lo
	p.upper[v] = hi
	return nil
}

// Bounds returns the bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lower[v], p.upper[v] }

// AddConstraint appends a constraint. Terms referencing out-of-range
// variables are rejected.
func (p *Problem) AddConstraint(c Constraint) error {
	for _, t := range c.Terms {
		if t.Var < 0 || t.Var >= p.numVars {
			return fmt.Errorf("constraint var %d out of range", t.Var)
		}
	}
	p.cons = append(p.cons, c)
	p.form = &shape{}
	return nil
}

// Clone returns a copy whose objective and bounds are independent of
// p's; the branch-and-bound layer clones the root problem to apply
// branching bounds. Constraints are never mutated after AddConstraint,
// so the clone shares p's constraint list, and with it the standard
// form its solves build, until either problem adds a constraint. The
// shared list's capacity is clipped, so neither side's AddConstraint
// can write into a slot the other one sees.
func (p *Problem) Clone() *Problem {
	return &Problem{
		numVars: p.numVars,
		obj:     append([]float64(nil), p.obj...),
		lower:   append([]float64(nil), p.lower...),
		upper:   append([]float64(nil), p.upper...),
		cons:    p.cons[:len(p.cons):len(p.cons)],
		form:    p.form,
	}
}

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota + 1
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective can decrease without bound.
	Unbounded
	// IterLimit means the iteration limit was exceeded.
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // values of the structural variables
	Objective float64
	Iters     int
	// Basis is the optimal basis, exported on Optimal solves by the
	// revised solver so the next solve of a structurally identical
	// problem (same constraints, possibly tighter bounds) can warm-start
	// via SolveWarmDeadlineObs. Nil from the dense reference solver.
	Basis *Basis
	// DualFeasible marks Objective as a valid lower bound on the true
	// optimum even when Status is IterLimit — set when a warm-started
	// dual-simplex solve ran out of time before regaining primal
	// feasibility, if its last basis is still dual feasible. Branch and
	// bound uses it to keep truncated work.
	DualFeasible bool
}

// ErrNoSolution is wrapped by Solve for infeasible/unbounded problems so
// callers can branch on it.
var ErrNoSolution = errors.New("no solution")

const (
	eps     = 1e-9
	epsCost = 1e-9
)

// Observer receives named counter increments from the solver —
// "lp.solves" once per solve, "lp.pivots" with the iteration count,
// "lp.pivots.dual" with the dual-simplex share, "lp.pivots.flip" with
// the dual iterations that were bound flips (a subset of
// lp.pivots.dual), "lp.refactorizations" with basis rebuilds, and
// "lp.warmstart.hits" / "lp.warmstart.misses" from SolveWarmDeadlineObs.
// *obs.Recorder satisfies it; lp stays free of telemetry imports.
// Implementations must be safe for concurrent use, since relaxations
// solve in parallel across B&B batches.
type Observer interface {
	Add(name string, delta int64)
}

// Solve minimizes the problem and returns the optimal solution, or a
// Solution whose Status explains why none exists (in which case the
// error wraps ErrNoSolution). The default engine is the revised simplex
// in revised.go; the dense tableau remains available via SolveDense.
func Solve(p *Problem) (Solution, error) {
	return SolveDeadlineObs(p, time.Time{}, nil)
}

// SolveDeadlineObs is Solve with a wall-clock deadline, reporting
// solver counters to an optional observer (nil disables reporting).
// When the deadline passes mid-solve the result carries IterLimit
// status (wrapped in ErrNoSolution) so callers can treat it like any
// other unfinished relaxation. The deadline is checked between pivots,
// and a phase-2 timeout still returns the best feasible iterate found
// so far. A zero deadline means no limit.
func SolveDeadlineObs(p *Problem, deadline time.Time, o Observer) (Solution, error) {
	return solveRevised(p, nil, false, deadline, o)
}

// SolveWarmDeadlineObs re-solves a problem with the same constraint
// structure as the solve that produced warm — typically after bounds
// tightened (a branch-and-bound child). A basis that is still primal
// feasible skips phase 1 entirely; one that is only dual feasible is
// repaired by dual simplex; anything else falls back to a cold solve.
// A nil warm basis is a cold solve, counted as a warm-start miss.
// Hit/miss counters are reported to the observer either way.
func SolveWarmDeadlineObs(p *Problem, warm *Basis, deadline time.Time, o Observer) (Solution, error) {
	return solveRevised(p, warm, true, deadline, o)
}

// SolveDense runs the dense two-phase full-tableau reference solver.
// It is retained for differential testing against the revised simplex.
func SolveDense(p *Problem) (sol Solution, err error) {
	t, err := newTableau(p)
	if err != nil {
		return Solution{}, err
	}
	if t.needPhase1 {
		st, iters := t.run(true)
		t.iters += iters
		if st != Optimal {
			return Solution{Status: st, Iters: t.iters}, fmt.Errorf("phase 1: %v: %w", st, ErrNoSolution)
		}
		if t.phase1Objective() > 1e-6 {
			return Solution{Status: Infeasible, Iters: t.iters}, fmt.Errorf("infeasible: %w", ErrNoSolution)
		}
		t.dropArtificials()
	}
	st, iters := t.run(false)
	t.iters += iters
	sol = Solution{Status: st, Iters: t.iters}
	if st != Optimal {
		return sol, fmt.Errorf("phase 2: %v: %w", st, ErrNoSolution)
	}
	sol.X = t.extract()
	sol.Objective = dot(p.obj, sol.X)
	return sol, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
