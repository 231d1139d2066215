// Package ilp implements a 0-1 mixed-integer linear program solver by
// branch and bound over LP relaxations solved with internal/lp. Together
// with internal/lp it is this repository's substitute for the CPLEX
// dependency of the Pesto paper.
//
// The solver searches depth-first with best-bound plunging, branches on
// the most fractional binary variable, and accepts incumbents both from
// integral LP relaxations and from an optional caller-supplied rounding
// heuristic (Pesto's placement layer supplies one that list-schedules a
// rounded placement, which is what keeps large instances productive when
// the time budget truncates the exact search). Solutions report the
// remaining optimality gap, so callers can distinguish proven-optimal
// results (the Theorem 3.1 regime) from budget-limited ones.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pesto/internal/engine"
	"pesto/internal/lp"
	"pesto/internal/obs"
)

// Problem is a 0-1 MILP: an LP plus a set of variables restricted to
// {0, 1}.
type Problem struct {
	// LP is the relaxation. Binary variables must have bounds within
	// [0, 1].
	LP *lp.Problem
	// Binary lists the indices of 0-1 variables.
	Binary []int
}

// Options tunes the branch-and-bound search.
type Options struct {
	// TimeLimit bounds the wall-clock search time; zero means 30s.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored B&B nodes; zero means
	// 200000.
	MaxNodes int
	// Incumbent, when non-nil, is invoked with each LP relaxation
	// solution. It may return a feasible point for the full problem
	// and its objective; the solver keeps it if it improves the
	// incumbent. This hook lets domain code contribute rounding
	// heuristics without the solver knowing the problem structure.
	// The hook is always called from the merge phase on a single
	// goroutine, so it may keep unguarded state.
	Incumbent func(relaxed []float64) (x []float64, obj float64, ok bool)
	// Pool evaluates the LP relaxations of independent open nodes
	// concurrently. Nil runs them inline. The search trajectory is a
	// function of batchSize, not of the pool's worker count, so the
	// returned solution is identical at any parallelism level for a
	// fixed truncation point (MaxNodes, or a TimeLimit that does not
	// bind). A binding TimeLimit truncates wherever the wall clock
	// lands, which varies with machine load.
	Pool *engine.Pool
}

// batchSize is the number of open nodes whose LP relaxations are
// solved per round. It is a constant — deliberately not the worker
// count — so the set of explored nodes, and therefore the solution,
// does not depend on how many workers the pool happens to have.
const batchSize = 8

// gapTolerance stops the search once the relative gap between the
// incumbent and the best bound falls below it.
const gapTolerance = 1e-6

func (o Options) withDefaults() Options {
	if o.TimeLimit <= 0 {
		o.TimeLimit = 30 * time.Second
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	return o
}

// Status reports the outcome of Solve.
type Status int

const (
	// OptimalStatus means the incumbent was proven optimal.
	OptimalStatus Status = iota + 1
	// FeasibleStatus means a feasible incumbent was found, but the
	// search stopped (time, node limit, context) before proving
	// optimality.
	FeasibleStatus
	// InfeasibleStatus means the problem has no feasible solution.
	InfeasibleStatus
	// NoSolutionStatus means the search stopped before finding any
	// feasible solution.
	NoSolutionStatus
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case OptimalStatus:
		return "optimal"
	case FeasibleStatus:
		return "feasible"
	case InfeasibleStatus:
		return "infeasible"
	case NoSolutionStatus:
		return "no-solution"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Bound is the best proven lower bound on the optimum.
	Bound float64
	// Gap is (Objective-Bound)/max(|Objective|,1), zero when optimal.
	Gap float64
	// Nodes is the number of explored branch-and-bound nodes.
	Nodes int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
}

// ErrInfeasible is wrapped by Solve when the problem admits no feasible
// solution.
var ErrInfeasible = errors.New("integer infeasible")

const intTol = 1e-6

type node struct {
	fixes map[int]float64 // binary var -> 0 or 1
	bound float64         // parent LP bound (priority)
	depth int
	// basis is the parent relaxation's optimal basis, used to warm-start
	// this node's LP with dual simplex (only bounds changed, so the
	// parent basis stays dual feasible). Siblings share the same
	// immutable Basis; each solve copies what it needs, so the batch
	// fan-out never mutates shared state. Nil (root, or memory guard)
	// falls back to a cold solve.
	basis *lp.Basis
}

// maxWarmFrontier bounds how many open nodes may carry a basis
// snapshot. A Basis holds its basic set, a status per column and an
// eta file (shared with the solves that import it, but kept alive by
// it), so an adversarial frontier could otherwise pin unbounded
// memory; beyond the cap children solve cold, which affects speed but
// not the search trajectory's correctness.
const maxWarmFrontier = 512

// Solve runs branch and bound and returns the best solution found. The
// context cancels the search early (the best incumbent so far is still
// returned with FeasibleStatus); the time limit is enforced through a
// derived context deadline, so in-flight LP batches stop launching new
// work rather than being polled from outside.
func Solve(ctx context.Context, p Problem, opts Options) (Solution, error) {
	opts = opts.withDefaults()
	start := time.Now()
	deadline := start.Add(opts.TimeLimit)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	// Telemetry: counters (ilp.nodes, ilp.incumbents, and through lpObs
	// the lp.solves/lp.pivots of every relaxation) plus the
	// incumbent-vs-lower-bound convergence series sampled once per
	// batch. All of it is nil-safe no-ops without a recorder.
	rec := obs.From(ctx)
	var lpObs lp.Observer
	if rec != nil {
		lpObs = rec
	}
	newIncumbent := func(source string, objective float64) {
		rec.Add("ilp.incumbents", 1)
		rec.Point("ilp.incumbent", obs.String("source", source), obs.F64("objective", objective))
	}

	isBinary := make(map[int]bool, len(p.Binary))
	for _, v := range p.Binary {
		isBinary[v] = true
		lo, hi := p.LP.Bounds(v)
		if lo < 0 || hi > 1 {
			return Solution{}, fmt.Errorf("binary var %d has bounds [%g,%g] outside [0,1]", v, lo, hi)
		}
	}

	best := Solution{Status: NoSolutionStatus, Objective: math.Inf(1), Bound: math.Inf(-1)}
	lpStalled := false
	// stalledBound is the weakest dual-feasible bound among dropped
	// (deadline-truncated) subtrees; it caps the final proven Bound.
	stalledBound := math.Inf(1)
	// open is kept sorted by bound descending so we can pop the
	// best-bound node from the tail cheaply.
	open := []node{{fixes: map[int]float64{}, bound: math.Inf(-1)}}
	rootSolved := false
	rootBound := math.Inf(-1)

	// Each round pops up to batchSize nodes, solves their LP
	// relaxations concurrently through the pool (the solve is pure:
	// clone, fix bounds, solve), and then merges the outcomes on this
	// goroutine in pop order — pruning, incumbent updates, diving and
	// branching all happen sequentially on merged state.
	prunable := func(bound float64) bool {
		return bound > best.Objective-gapTolerance*math.Max(math.Abs(best.Objective), 1) &&
			rootSolved && !math.IsInf(bound, -1) && best.Status != NoSolutionStatus
	}
	type lpOutcome struct {
		rel lp.Solution
		err error
	}
	for len(open) > 0 {
		if ctx.Err() != nil || best.Nodes >= opts.MaxNodes {
			break
		}
		// Order the frontier: best-bound nodes at the tail — except
		// while no incumbent exists, where diving (deepest node first)
		// reaches integral leaves fastest.
		if best.Status == NoSolutionStatus {
			sort.Slice(open, func(i, j int) bool { return open[i].depth < open[j].depth })
		} else {
			sort.Slice(open, func(i, j int) bool { return open[i].bound > open[j].bound })
		}
		// Pop up to batchSize non-prunable nodes from the tail.
		var batch []node
		for len(open) > 0 && len(batch) < batchSize {
			nd := open[len(open)-1]
			open = open[:len(open)-1]
			if prunable(nd.bound) {
				continue
			}
			batch = append(batch, nd)
		}
		if len(batch) == 0 {
			continue
		}
		outs, mapErr := engine.Map(ctx, opts.Pool, len(batch), func(_ context.Context, i int) (lpOutcome, error) {
			sub := p.LP.Clone()
			for v, val := range batch[i].fixes {
				if err := sub.SetBounds(v, val, val); err != nil {
					return lpOutcome{}, fmt.Errorf("apply branch fix: %w", err)
				}
			}
			rel, err := lp.SolveWarmDeadlineObs(sub, batch[i].basis, deadline, lpObs)
			return lpOutcome{rel: rel, err: err}, nil
		})
		if mapErr != nil {
			break // cancelled mid-batch; results may be incomplete
		}
		for i, nd := range batch {
			out := outs[i]
			if out.Err != nil {
				return best, out.Err
			}
			rel, err := out.Value.rel, out.Value.err
			best.Nodes++
			rec.Add("ilp.nodes", 1)
			// Per-child pivot counts expose warm-start effectiveness in
			// the B&B trajectory: warm-started children should need far
			// fewer pivots than the cold root.
			rec.Sample("ilp.child.pivots", float64(rel.Iters), obs.Int("node", int64(best.Nodes)))
			if err != nil {
				if errors.Is(err, lp.ErrNoSolution) {
					if rel.Status == lp.IterLimit {
						// The LP ran out of time or stalled. The subtree
						// is dropped, but a truncated solve is no longer
						// a total loss: a dual-feasible objective is a
						// valid lower bound for the subtree (it caps the
						// final Bound, or prunes outright), and a primal
						// feasible iterate can still seed the caller's
						// rounding heuristic.
						lpStalled = true
						rootSolved = true
						if rel.DualFeasible && !math.IsInf(rel.Objective, 0) {
							if !prunable(rel.Objective) && rel.Objective < stalledBound {
								stalledBound = rel.Objective
							}
						}
						if opts.Incumbent != nil && len(rel.X) > 0 {
							if hx, hobj, ok := opts.Incumbent(rel.X); ok && hobj < best.Objective {
								best.X = append([]float64(nil), hx...)
								best.Objective = hobj
								best.Status = FeasibleStatus
								newIncumbent("stalled-relaxation", hobj)
							}
						}
						continue
					}
					if !rootSolved && rel.Status == lp.Infeasible {
						best.Status = InfeasibleStatus
						best.Elapsed = time.Since(start)
						return best, fmt.Errorf("root relaxation: %w", ErrInfeasible)
					}
					rootSolved = true
					continue // prune infeasible subtree
				}
				return best, fmt.Errorf("lp solve: %w", err)
			}
			if !rootSolved {
				rootSolved = true
				rootBound = rel.Objective
			}
			// Bound-based pruning against the latest incumbent (an
			// earlier node of this batch may have improved it since
			// this node was selected).
			if best.Status != NoSolutionStatus && rel.Objective >= best.Objective-gapTolerance*math.Max(math.Abs(best.Objective), 1) {
				continue
			}
			// Offer the relaxation to the caller's heuristic.
			if opts.Incumbent != nil {
				if hx, hobj, ok := opts.Incumbent(rel.X); ok && hobj < best.Objective {
					best.X = append([]float64(nil), hx...)
					best.Objective = hobj
					best.Status = FeasibleStatus
					newIncumbent("heuristic", hobj)
				}
			}
			// Rounding dive: a built-in primal heuristic that fixes
			// near-integral binaries in bulk and re-solves until an
			// integral point falls out. Run at the root and
			// periodically, and always while no incumbent exists.
			if best.Nodes == 1 || best.Status == NoSolutionStatus || best.Nodes%16 == 0 {
				if dx, dobj, ok := dive(p, nd.fixes, rel.X, rel.Basis, deadline, lpObs); ok && dobj < best.Objective {
					best.X = dx
					best.Objective = dobj
					best.Status = FeasibleStatus
					newIncumbent("dive", dobj)
				}
			}
			// Find most fractional binary.
			branchVar, frac := -1, 0.0
			for _, v := range p.Binary {
				f := rel.X[v] - math.Floor(rel.X[v])
				d := math.Min(f, 1-f)
				if d > intTol && d > frac {
					frac = d
					branchVar = v
				}
			}
			if branchVar < 0 {
				// Integral: candidate incumbent.
				if rel.Objective < best.Objective {
					best.X = append([]float64(nil), rel.X...)
					best.Objective = rel.Objective
					best.Status = FeasibleStatus
					newIncumbent("integral-leaf", rel.Objective)
				}
				continue
			}
			childBasis := rel.Basis
			if len(open) >= maxWarmFrontier {
				childBasis = nil
			}
			for _, val := range [2]float64{roundDir(rel.X[branchVar]), 1 - roundDir(rel.X[branchVar])} {
				fixes := make(map[int]float64, len(nd.fixes)+1)
				for k, v := range nd.fixes {
					fixes[k] = v
				}
				fixes[branchVar] = val
				open = append(open, node{fixes: fixes, bound: rel.Objective, depth: nd.depth + 1, basis: childBasis})
			}
		}
		if rec != nil {
			// One convergence sample per batch: the incumbent and the
			// frontier's proven lower bound, comparable in time against
			// the solver spans on the same recorder.
			if best.Status != NoSolutionStatus {
				rec.Sample("ilp.incumbent", best.Objective, obs.Int("nodes", int64(best.Nodes)))
			}
			fb := math.Inf(1)
			for _, nd := range open {
				if nd.bound < fb {
					fb = nd.bound
				}
			}
			if math.IsInf(fb, 1) || (rootSolved && fb < rootBound) {
				fb = rootBound
			}
			if !math.IsInf(fb, 0) {
				rec.Sample("ilp.bound", fb, obs.Int("nodes", int64(best.Nodes)))
			}
		}
	}

	best.Elapsed = time.Since(start)
	// Compute the final bound: the minimum over remaining open nodes
	// and the root bound.
	bound := math.Inf(1)
	for _, nd := range open {
		if nd.bound < bound {
			bound = nd.bound
		}
	}
	if len(open) == 0 {
		// Search exhausted: the incumbent is optimal (or none exists).
		bound = best.Objective
	}
	if math.IsInf(bound, 1) || (rootSolved && bound < rootBound) {
		bound = rootBound
	}
	// Truncated subtrees were dropped, not explored; their dual bounds
	// cap what the search actually proved.
	if stalledBound < bound {
		bound = stalledBound
	}
	// A truncated search can leave every open node with a bound above
	// the incumbent (their subtrees would have been pruned, not
	// explored). The incumbent is feasible, so the optimum is at most
	// its value: the valid proven bound is the minimum of the two.
	// Without this cap a node-capped search could report Bound >
	// Objective and, through the clamped gap, claim optimality it
	// never proved.
	if best.Status != NoSolutionStatus && best.Objective < bound {
		bound = best.Objective
	}
	best.Bound = bound

	switch {
	case best.Status == InfeasibleStatus:
		return best, ErrInfeasible
	case best.Status == NoSolutionStatus && len(open) == 0 && rootSolved && !lpStalled:
		best.Status = InfeasibleStatus
		return best, ErrInfeasible
	case best.Status == NoSolutionStatus:
		return best, nil
	}
	best.Gap = math.Max(0, (best.Objective-best.Bound)/math.Max(math.Abs(best.Objective), 1))
	if len(open) == 0 || best.Gap <= gapTolerance {
		best.Status = OptimalStatus
		best.Gap = 0
	}
	return best, nil
}

// roundDir picks the branch direction closest to the fractional value so
// the first child explored is the "dive" child.
func roundDir(x float64) float64 {
	if x >= 0.5 {
		return 1
	}
	return 0
}

// dive is the rounding-dive primal heuristic: starting from a node's
// fixes and its relaxation, repeatedly fix every near-integral binary
// (and the least fractional quarter of the rest) to its rounded value
// and re-solve, until the relaxation is integral or infeasible. Each
// round only tightens bounds, so every re-solve warm-starts from the
// previous round's basis. Returns an integral feasible point when one
// falls out.
func dive(p Problem, baseFixes map[int]float64, relaxed []float64, basis *lp.Basis, deadline time.Time, lpObs lp.Observer) ([]float64, float64, bool) {
	fixes := make(map[int]float64, len(p.Binary))
	for k, v := range baseFixes {
		fixes[k] = v
	}
	x := relaxed
	for round := 0; round <= len(p.Binary); round++ {
		if time.Now().After(deadline) {
			return nil, 0, false
		}
		// Partition the unfixed binaries by fractionality.
		type frac struct {
			v int
			d float64
		}
		var fractional []frac
		for _, v := range p.Binary {
			if _, done := fixes[v]; done {
				continue
			}
			f := x[v] - math.Floor(x[v])
			d := math.Min(f, 1-f)
			if d <= intTol {
				fixes[v] = math.Round(x[v])
				continue
			}
			fractional = append(fractional, frac{v, d})
		}
		sub := p.LP.Clone()
		for v, val := range fixes {
			if sub.SetBounds(v, val, val) != nil {
				return nil, 0, false
			}
		}
		if len(fractional) == 0 {
			// Integral: one final solve with everything fixed yields
			// the continuous completion.
			sol, err := lp.SolveWarmDeadlineObs(sub, basis, deadline, lpObs)
			if err != nil {
				return nil, 0, false
			}
			return sol.X, sol.Objective, true
		}
		// Fix the least fractional variables first (a quarter of the
		// remainder per round) so a dive needs O(log n) re-solves.
		sort.Slice(fractional, func(i, j int) bool { return fractional[i].d < fractional[j].d })
		bulk := len(fractional)/4 + 1
		for i := 0; i < bulk; i++ {
			fixes[fractional[i].v] = math.Round(x[fractional[i].v])
			if sub.SetBounds(fractional[i].v, math.Round(x[fractional[i].v]), math.Round(x[fractional[i].v])) != nil {
				return nil, 0, false
			}
		}
		sol, err := lp.SolveWarmDeadlineObs(sub, basis, deadline, lpObs)
		if err != nil {
			return nil, 0, false // dead end
		}
		x = sol.X
		basis = sol.Basis
	}
	return nil, 0, false
}
