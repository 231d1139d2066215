package placement

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/coarsen"
	"pesto/internal/engine"
	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/sim"
)

// Errors reported by Place.
var (
	// ErrUnsupportedSystem marks systems the ILP formulation does not
	// cover (it needs exactly two GPUs, the paper's primary setting;
	// §3.2.2 sketches the multi-GPU extension).
	ErrUnsupportedSystem = errors.New("unsupported system for Pesto ILP")
	// ErrNoPlacement means no feasible placement was found at all.
	ErrNoPlacement = errors.New("no feasible placement found")
)

// Options configures the Pesto placement pipeline.
type Options struct {
	// CoarsenTarget is the coarse-graph size handed to the ILP. The
	// paper coarsens to ~200 vertices for CPLEX; this repository's
	// heuristic/refinement layers default to 192 (close to the paper);
	// the exact branch and bound additionally coarsens to ilpMaxSize
	// (see DESIGN.md).
	CoarsenTarget int
	// ILPTimeLimit bounds the branch-and-bound search; zero means 10s.
	ILPTimeLimit time.Duration
	// ILPMaxNodes bounds the number of branch-and-bound nodes explored;
	// zero defers to the solver's default. Unlike the wall-clock
	// ILPTimeLimit, a node cap truncates the search at the same point on
	// every machine, making the whole pipeline reproducible when the
	// budget, not convergence, ends the search.
	ILPMaxNodes int
	// DisableCongestion removes congestion from the planner's world
	// model — the Figure 5 ablation. The ILP drops constraint group
	// (7), and the warm-start/refinement heuristics evaluate against a
	// congestion-free, negligible-communication system (the assumptions
	// §3.2.2 attributes to prior DAG schedulers). The returned plan is
	// still meant for the real FCFS system, where its bunched transfers
	// serialize.
	DisableCongestion bool
	// DisableMemory drops the memory constraints (8).
	DisableMemory bool
	// ScheduleFromILP controls whether the ILP's start times become a
	// strict per-device order (Pesto's control dependencies). When
	// false, only the placement is used and the simulator's
	// TensorFlow-like ready queue schedules operations — the fallback
	// §3.3 describes for heavily coarsened graphs.
	ScheduleFromILP bool
	// Seed is carried for callers that label runs with it; nothing in
	// the placement search reads it — every heuristic here is
	// deterministic without a seed.
	Seed int64
	// Parallel bounds the number of worker goroutines used for
	// candidate evaluation, refinement moves and branch-and-bound LP
	// relaxations; zero means GOMAXPROCS, negative values also fall
	// back to GOMAXPROCS. The returned plan is byte-identical for fixed
	// inputs at every Parallel value: the engine merges results in
	// submission order, so parallelism changes only the wall clock.
	Parallel int
	// DisableFallback turns the degradation ladder off: Place runs the
	// exact ILP pipeline only and returns its error on failure instead
	// of degrading to the warm-start or baseline stages. Ablations and
	// tests that must observe the exact pipeline's failure use this.
	DisableFallback bool
	// StartStage skips the degradation-ladder rungs above it: Place
	// starts at the given rung instead of the exact ILP. StageRefine
	// starts at the warm-start+refinement pipeline, StageFallback goes
	// straight to the near-instant heuristics. Zero (or StageILP) runs
	// the full ladder. A plan served by the requested starting rung is
	// not Degraded — degradation is measured against what was asked
	// for, not against the full ladder. The serving layer maps
	// per-request deadlines to this field via StageForDeadline.
	// Ignored when DisableFallback is set (that flag pins the exact
	// pipeline).
	StartStage Stage
	// StageHook, when non-nil, is invoked at the start of every ladder
	// stage attempt. A non-nil return fails that attempt; a panic
	// exercises the ladder's panic recovery. It exists for fault
	// injection in tests and resilience experiments.
	StageHook func(Stage) error
	// PerOpModel is an ablation that disables the group-level ILP
	// model: every GPU operation gets its own placement binary and
	// colocation is enforced with equality rows (the pre-group
	// formulation), instead of one shared binary per colocation group.
	// The group-level default shrinks rows, columns and the binary
	// count before the solver runs; the ablation exists to measure
	// that shrinkage and to cross-check the two formulations against
	// each other.
	PerOpModel bool
	// Pipeline selects the microbatched pipeline-parallel planning
	// regime (Microbatches > 0): Place cuts the coarse graph into
	// contiguous stages with the contiguous-split DP, searches GPipe
	// and 1F1B schedules over Options.Pipeline.Microbatches
	// microbatches on the simulator, and returns the stage placement
	// with the winning (partition, schedule) pair recorded in
	// Result.Provenance.Pipeline. The zero value keeps the classic
	// one-shot FIFO regime.
	Pipeline pipeline.Options
	// Verify re-proves every returned plan against the independent
	// invariant checker (internal/verify) — precedence, colocation,
	// affinity, memory, link discipline and makespan accounting — and
	// fails with an ErrVerification-wrapped error instead of returning
	// a plan that violates any of them. With DisableMemory set, the
	// memory invariant is lifted to match the caller's request. The
	// placement test suite forces this on for every plan; production
	// callers pay one extra simulation per Place/Replan call when
	// enabled.
	Verify bool
}

// withDefaults resolves every "zero means X" rule in one place — the
// engine, the experiment harness and the tests all rely on this being
// the only site that derives defaults.
func (o Options) withDefaults() Options {
	if o.CoarsenTarget <= 0 {
		o.CoarsenTarget = 192
	}
	if o.ILPTimeLimit <= 0 {
		o.ILPTimeLimit = 10 * time.Second
	}
	o.Pipeline = o.Pipeline.WithDefaults()
	return o
}

// The pipeline's fixed tuning.
const (
	// ilpMaxSize caps the coarse-graph size handed to the exact ILP;
	// graphs finer than this get a second, smaller coarsening for the
	// branch and bound while heuristics work at CoarsenTarget.
	ilpMaxSize = 48
	// memorySlack is the allowed relative imbalance of the per-GPU
	// memory split.
	memorySlack = 0.15
	// stageRetries is the number of extra attempts each rung of the
	// degradation ladder gets after its first failure (panic or error),
	// stageBackoff apart. Retries are skipped once a stage's deadline
	// has passed: re-running a deterministic timeout is wasted budget.
	stageRetries = 1
	// incrMaxChain bounds how many warm re-places may chain off one
	// cold solve before Incremental forces a cold refresh. Each warm
	// step inherits the previous plan, so quality drift compounds, and
	// a periodic cold solve re-anchors it.
	incrMaxChain = 9
)

// Result is the outcome of Place.
type Result struct {
	// Plan is the placement (and, with ScheduleFromILP, the schedule)
	// for the original graph.
	Plan sim.Plan
	// CoarseSize is the number of coarse vertices the ILP solved over.
	CoarseSize int
	// LPVars, LPRows and LPGroups record the solved model's size: LP
	// variables, constraint rows, and distinct placement binaries (one
	// per colocation group under the group-level model, one per GPU op
	// under Options.PerOpModel). They are provenance for "how big was
	// the model the solver actually saw"; zero when the winning ladder
	// rung never built an ILP.
	LPVars, LPRows, LPGroups int
	// ILPStatus, Gap and Nodes report the branch-and-bound outcome;
	// Gap == 0 with OptimalStatus is the Theorem 3.1 regime. Gap is
	// ilp.Solution.Gap, (objective − bound) ÷ max(|objective|, 1). The
	// objective is C_max normalised by the model's horizon and below 1,
	// so Gap is (C_max − bound) ÷ horizon, not a gap relative to C_max.
	ILPStatus ilp.Status
	Gap       float64
	Nodes     int
	// PredictedMakespan is the ILP's C_max (or the incumbent
	// heuristic's simulated makespan when that won). It can be
	// optimistic when non-overlap/congestion pairs were capped.
	PredictedMakespan time.Duration
	// SimulatedMakespan is the realized makespan of the returned Plan
	// on the discrete-event simulator — the value that selected it.
	SimulatedMakespan time.Duration
	// PlacementTime is the end-to-end time Place took — the paper's
	// "placement time" metric (Table 2).
	PlacementTime time.Duration
	// Provenance records which rung of the degradation ladder produced
	// the plan and what every earlier attempt died of, so callers can
	// tell an optimal plan from a degraded one.
	Provenance Provenance
}

// placeILP runs the full exact Pesto pipeline on g for sys: coarsen,
// build the ILP, solve with branch and bound plus a list-scheduling
// incumbent heuristic, and expand the coarse solution to an
// original-graph plan. It is the first rung of Place's degradation
// ladder (see ladder.go); callers outside the ladder should use Place.
//
// Independent candidate evaluations — warm-start seeds, refinement
// moves, branch-and-bound LP relaxations and the final candidate
// simulations — run concurrently on an opts.Parallel-wide worker pool.
// Cancelling ctx aborts the pipeline: in-flight work stops and the
// pipeline returns the (wrapped) context error instead of a partial
// plan.
func placeILP(ctx context.Context, g *graph.Graph, sys sim.System, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	// Two coarsening granularities (both §3.3): a fine one preserving
	// parallelism for the list-scheduling heuristics and refinement,
	// and — when the fine graph is still too large for the exact
	// branch and bound — a smaller one for the ILP, the way the paper
	// coarsens to a CPLEX-tractable ~200 vertices.
	s, err := newSearch(ctx, g, sys, opts, start)
	if err != nil {
		return nil, err
	}
	defer s.cancel()
	h := s.h
	ilpCres := h.cres
	if h.cg.NumNodes() > ilpMaxSize {
		if ilpCres, err = coarsenTo(ctx, g, ilpMaxSize); err != nil {
			return nil, err
		}
	}
	_, modelSpan := obs.Start(ctx, "placement.model")
	m, err := buildModel(ilpCres.Coarse, sys, opts)
	if err != nil {
		modelSpan.End(obs.String("outcome", "error"))
		return nil, fmt.Errorf("pesto model: %w", err)
	}
	modelSpan.End(obs.Int("lp-vars", int64(m.lp.NumVars())), obs.Int("lp-constraints", int64(m.lp.NumConstraints())),
		obs.Int("placement-groups", int64(len(m.xGroups))))

	// Incumbent heuristic: round the relaxation's placement, repair
	// memory, list-schedule the original graph, and report the realized
	// makespan (a valid C_max upper bound: any valid schedule is a
	// feasible ILP point, §3.2.2). Both levels normalize by the model's
	// horizon, so their objectives compare.
	hILP := s.level(ilpCres, m)
	h.horizon = m.horizon
	// The time budget is split between the exact branch and bound and a
	// hill-climbing refinement at the finer granularity (single coarse-
	// node moves evaluated through the simulator), which recovers the
	// scheduling-aware quality the capped ILP may miss.
	ilpBudget := opts.ILPTimeLimit * 6 / 10
	ictx, ilpSpan := obs.Start(s.sctx, "placement.ilp", obs.Dur("budget", ilpBudget))
	sol, err := ilp.Solve(ictx, ilp.Problem{LP: m.lp, Binary: m.binary}, ilp.Options{
		TimeLimit: ilpBudget,
		MaxNodes:  opts.ILPMaxNodes,
		Incumbent: hILP.tryIncumbent,
		Pool:      s.pool,
	})
	ilpSpan.End(obs.String("status", sol.Status.String()),
		obs.Int("nodes", int64(sol.Nodes)), obs.F64("gap", sol.Gap))
	if err != nil && !errors.Is(err, ilp.ErrInfeasible) {
		return nil, fmt.Errorf("pesto ilp: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pesto: cancelled during ilp: %w", err)
	}
	ilpSolved := sol.Status == ilp.OptimalStatus || sol.Status == ilp.FeasibleStatus
	if ilpSolved {
		hILP.submit(ctx, candidate{dev: hILP.expandDevices(m.assignmentFromX(sol.X))})
	}

	// Fine-granularity seeding and refinement, inheriting the ILP
	// level's best placement. List-scheduling placements (the ETF/SCT
	// family) also warm-start the search — a standard MILP technique
	// standing in for the stronger solver the paper had: whatever the
	// greedy schedulers find is a feasible ILP point, so Pesto starts
	// from at least their quality and improves from there.
	if err := s.seedAndRefine(ctx, hILP.bestDev); err != nil {
		return nil, err
	}

	res := &Result{
		CoarseSize: h.cg.NumNodes(),
		LPVars:     m.lp.NumVars(),
		LPRows:     m.lp.NumConstraints(),
		LPGroups:   len(m.xGroups),
		ILPStatus:  sol.Status,
		Gap:        sol.Gap,
		Nodes:      sol.Nodes,
	}

	// Collect candidate plans: the ILP's solution (whose C_max can be
	// optimistic when constraint pairs were capped) and the heuristic's
	// best vector. The ILP's coarse plan is expanded to the original
	// graph with the strict blob order its start times imply and under
	// the schedule disciplines (the paper's §3.3 fallback "when each
	// vertex in the final coarsened graph may contain hundreds of
	// operations ... instead employ the default TensorFlow
	// scheduling"); the realized simulated makespan decides.
	var variants []sim.Plan
	if ilpSolved {
		res.PredictedMakespan = time.Duration(sol.Objective * float64(m.horizon))
		cp, err := m.coarsePlan(sol.X)
		if err != nil {
			return nil, err
		}
		variants = append(variants, s.candidatePlans(hILP.expandDevices(cp.Device))...)
		variants = append(variants, expandOrdered(g, ilpCres, cp))
	}
	if h.bestDev != nil {
		if !ilpSolved {
			res.PredictedMakespan = time.Duration(h.bestObj * float64(m.horizon))
			if res.ILPStatus == ilp.NoSolutionStatus || res.ILPStatus == ilp.InfeasibleStatus {
				res.ILPStatus = ilp.FeasibleStatus
			}
		}
		variants = append(variants, s.candidatePlans(h.bestDev)...)
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("pesto: ilp %v and no heuristic incumbent: %w", sol.Status, ErrNoPlacement)
	}
	_, candSpan := obs.Start(ctx, "placement.candidates", obs.Int("variants", int64(len(variants))))
	bestPlan, bestMk, err := s.finalize(ctx, variants)
	candSpan.End()
	if err != nil {
		return nil, err
	}
	res.Plan = bestPlan
	res.SimulatedMakespan = bestMk
	res.PlacementTime = time.Since(start)
	return res, nil
}

// orderByRun attaches an explicit per-device order to a plan: its
// start times simulated on sys, ties broken topologically.
func orderByRun(g *graph.Graph, sys sim.System, plan sim.Plan) (sim.Plan, error) {
	r, err := sim.Run(g, sys, plan)
	if err != nil {
		return sim.Plan{}, err
	}
	order, err := orderByStarts(g, plan.Device, r.Start, len(sys.Devices))
	return sim.Plan{Device: plan.Device, Order: order}, err
}

// orderByStarts groups the nodes of g by device and orders each device's
// nodes by start time, ties broken topologically.
func orderByStarts[T cmp.Ordered](g *graph.Graph, device []sim.DeviceID, starts []T, numDevices int) ([][]graph.NodeID, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	topoPos := make([]int, g.NumNodes())
	for i, v := range topo {
		topoPos[v] = i
	}
	order := make([][]graph.NodeID, numDevices)
	for i, d := range device {
		order[d] = append(order[d], graph.NodeID(i))
	}
	for _, ids := range order {
		sort.Slice(ids, func(a, b int) bool {
			if starts[ids[a]] != starts[ids[b]] {
				return starts[ids[a]] < starts[ids[b]]
			}
			return topoPos[ids[a]] < topoPos[ids[b]]
		})
	}
	return order, nil
}

// expandOrdered lifts an ordered coarse plan onto the original graph:
// every member takes its coarse node's device, and each device runs
// its coarse nodes' members blob by blob in the coarse order.
func expandOrdered(g *graph.Graph, cres *coarsen.Result, coarse sim.Plan) sim.Plan {
	plan := sim.Plan{Device: make([]sim.DeviceID, g.NumNodes()), Order: make([][]graph.NodeID, len(coarse.Order))}
	for orig := range plan.Device {
		plan.Device[orig] = coarse.Device[cres.CoarseOf[orig]]
	}
	for dev, corder := range coarse.Order {
		for _, cid := range corder {
			plan.Order[dev] = append(plan.Order[dev], cres.Members[cid]...)
		}
	}
	return plan
}

// heuristic is one granularity of a search session: a coarsening of
// the session's graph, the candidates submitted at it (submit) and the
// best of them. The fine level seeds and refines; bound to the exact
// model, the ILP level supplies the branch and bound's incumbents by
// rounding the LP relaxation's placement variables (tryIncumbent).
type heuristic struct {
	// s is the session the level belongs to: the original graph, the
	// system, the options, the pool, the recorder and the scorer.
	s *search
	// model is set only at the ILP granularity (for x-vector interop
	// with the branch and bound); fine-granularity heuristics leave it
	// nil.
	model   *model
	cg      *graph.Graph // coarse graph at this granularity
	cres    *coarsen.Result
	horizon time.Duration // objective normalization unit

	// movable, when non-nil, restricts refinement to the coarse nodes
	// marked true: only moves whose flip set touches a movable node
	// are enumerated. Incremental placement uses it to hold clean
	// groups at their inherited devices while the dirty region is
	// re-solved. Nil (the cold-solve default) means every node moves.
	movable []bool

	// Global winner at original granularity (any source: seeds, ILP
	// roundings, list-scheduling warm starts, refinement moves).
	bestDev []sim.DeviceID
	bestObj float64 // normalized original-graph makespan

	// Refinement state at this heuristic's coarse granularity:
	// coarseBestMk is the makespan coarseBestObj normalizes.
	coarseBest    []sim.DeviceID
	coarseBestObj float64
	coarseBestMk  time.Duration
}

// seedCandidates builds the deterministic warm-start placements at this
// heuristic's coarse granularity: all-on-GPU-0, alternation by
// topological index (two phases), a contiguous compute-balanced split
// (the Expert shape), a layer-contiguous split and the contiguous-split
// DP's split. seedAndRefine submits them for the cold pipeline.
func (h *heuristic) seedCandidates() [][]sim.DeviceID {
	order, err := h.cg.TopoSort()
	if err != nil {
		return nil
	}
	gpus := h.s.sys.GPUs()
	k := len(gpus)
	nodes := h.cg.Nodes()
	mk := func(f func(pos int, id graph.NodeID) int) []sim.DeviceID {
		assign := make([]sim.DeviceID, len(nodes))
		for pos, id := range order {
			if nodes[id].Kind == graph.KindGPU {
				assign[id] = gpus[f(pos, id)%k]
			} else {
				assign[id] = h.s.sys.CPUID()
			}
		}
		return assign
	}
	// Contiguous compute-balanced k-way split over the topo order.
	var total, run time.Duration
	for _, nd := range nodes {
		if nd.Kind == graph.KindGPU {
			total += nd.Cost
		}
	}
	splitAt := make(map[graph.NodeID]int, len(order))
	for _, id := range order {
		if nodes[id].Kind != graph.KindGPU {
			continue
		}
		run += nodes[id].Cost
		idx := 0
		if total > 0 {
			idx = int(int64(k) * int64(run-nodes[id].Cost/2) / int64(total+1))
		}
		if idx >= k {
			idx = k - 1
		}
		splitAt[id] = idx
	}
	maxLayer := 0
	for _, nd := range nodes {
		if nd.Layer > maxLayer {
			maxLayer = nd.Layer
		}
	}
	seeds := [][]sim.DeviceID{
		mk(func(int, graph.NodeID) int { return 0 }),
		mk(func(pos int, _ graph.NodeID) int { return pos % k }),
		mk(func(pos int, _ graph.NodeID) int { return (pos / 2) % k }),
		mk(func(_ int, id graph.NodeID) int { return splitAt[id] }),
		mk(func(_ int, id graph.NodeID) int {
			if maxLayer <= 0 {
				return 0
			}
			return nodes[id].Layer * k / (maxLayer + 1)
		}),
	}
	// The contiguous-split DP's bottleneck-optimal split (forward-only
	// cost model, matching the FIFO scoring below). Seeding it here
	// keeps the ladder monotone through the StagePipelineDP rung: the
	// refine rung starts from at least as good a basin as the DP rung
	// can serve.
	if dp := dpSplitAssign(h.cg, h.s.sys); dp != nil {
		seeds = append(seeds, dp)
	}
	return seeds
}

// dpSplitAssign runs the pipeline package's contiguous-split DP over
// the heuristic's coarse graph and returns the stage assignment as a
// device vector, or nil when no feasible split exists. Fewer GPU groups
// than GPUs (tiny coarse graphs) still deserve a seed: the stage count
// shrinks until a split exists.
func dpSplitAssign(cg *graph.Graph, sys sim.System) []sim.DeviceID {
	gpus := sys.GPUs()
	for S := len(gpus); S >= 1; S-- {
		if part, err := pipeline.PartitionDP(cg, sys, gpus[:S], -1); err == nil {
			return stageAssign(cg, sys, part)
		}
	}
	return nil
}

// baselinePlans returns the published baseline placements that apply
// to g on sys, scored on the simulator: the best Baechi heuristic,
// HEFT and single-GPU, in that order. The five builds (three Baechi
// heuristics, HEFT, single-GPU) run as tasks on pool, all of them even
// past ctx's deadline, since the fallback rung must answer; the result
// does not depend on the order they finish in. A HEFT or single-GPU
// plan the simulator rejects keeps its Err, as a seed can repair it.
func baselinePlans(ctx context.Context, pool *engine.Pool, g *graph.Graph, sys sim.System) []baselines.Scored {
	nb := len(baselines.BaechiHeuristics)
	others := [...]func(*graph.Graph, sim.System) (sim.Plan, error){baselines.HEFT, baselines.SingleGPU}
	outs, _ := engine.Map(context.WithoutCancel(ctx), pool, nb+len(others), func(_ context.Context, i int) (baselines.Scored, error) {
		if i < nb {
			return baselines.ScoreBaechi(g, sys, baselines.BaechiHeuristics[i]), nil
		}
		plan, err := others[i-nb](g, sys)
		if err != nil {
			return baselines.Scored{}, err
		}
		return baselines.Score(g, sys, plan), nil
	})
	baechi := make([]baselines.Scored, nb)
	for i := range baechi {
		baechi[i] = outs[i].Value
	}
	var plans []baselines.Scored
	if i := baselines.Best(baechi); i >= 0 {
		plans = append(plans, baechi[i])
	}
	for _, o := range outs[nb:] {
		if o.Err == nil {
			plans = append(plans, o.Value)
		}
	}
	return plans
}

// tryIncumbent implements ilp.Options.Incumbent. It requires the
// heuristic to be bound to the ILP model.
func (h *heuristic) tryIncumbent(relaxed []float64) ([]float64, float64, bool) {
	assign := h.model.assignmentFromX(relaxed)
	h.model.repairColoc(assign, relaxed)
	if !h.submit(context.Background(), candidate{assign: assign}) {
		return nil, 0, false
	}
	// Report only the objective back to the B&B for pruning; the
	// placement layer keeps the plan itself.
	return h.model.xOf(h.coarseBest), h.coarseBestObj, true
}

// scoreBelow simulates an original-granularity device vector under
// every schedule discipline tried (candidatePlans) and reports the best.
// A caller that only wants makespans below limit passes it: a schedule
// the simulator proves reaches limit is cut short (placement.sims.cut)
// and counts as failed, so the vector scores not-ok when every schedule
// is cut; unbounded runs every schedule to the end. Every schedule
// counts in placement.sims. It never mutates the heuristic, so sibling
// scores may run concurrently.
func (h *heuristic) scoreBelow(dev []sim.DeviceID, limit time.Duration) scored {
	s := h.s
	out := scored{obj: math.Inf(1)}
	for _, plan := range s.candidatePlans(dev) {
		s.rec.Add("placement.sims", 1)
		var mk time.Duration
		var err error
		if limit == unbounded {
			mk, err = s.sc.Makespan(plan)
		} else if mk, err = s.sc.MakespanBelow(plan, limit); err == sim.ErrAboveLimit {
			s.rec.Add("placement.sims.cut", 1)
		}
		if err != nil {
			continue
		}
		if o := float64(mk) / float64(h.horizon); o < out.obj {
			out.obj, out.mk = o, mk
		}
		out.ok = true
	}
	return out
}

// record merges one scored vector into the level's bests: dev, at
// original granularity, into the global best, and assign, its coarse
// assignment when non-nil, into refinement's starting point. Must be
// called from a single goroutine, in submission order, so the winner is
// independent of worker count.
func (h *heuristic) record(assign, dev []sim.DeviceID, sc scored) {
	if !sc.ok {
		return
	}
	if h.bestDev == nil || sc.obj < h.bestObj {
		h.bestDev = append([]sim.DeviceID(nil), dev...)
		h.bestObj = sc.obj
	}
	if assign != nil && (h.coarseBest == nil || sc.obj < h.coarseBestObj) {
		h.coarseBest = append([]sim.DeviceID(nil), assign...)
		h.coarseBestObj, h.coarseBestMk = sc.obj, sc.mk
	}
}

// projectOriginal maps an original-graph device vector to this
// heuristic's coarse granularity: each GPU coarse node goes to the
// healthy GPU carrying the compute-time majority of its members (ties
// to the lowest device ID, so the projection is deterministic), CPU
// coarse nodes to the CPU. Members assigned to devices outside the
// healthy GPU set — e.g. a failed device during Replan — carry no
// weight, which is what migrates them.
func (h *heuristic) projectOriginal(devices []sim.DeviceID) []sim.DeviceID {
	gpus := h.s.sys.GPUs()
	assign := make([]sim.DeviceID, h.cg.NumNodes())
	// weight[d] is the current coarse node's member weight on device d,
	// counted only when isGPU[d].
	isGPU := make([]bool, len(h.s.sys.Devices))
	for _, d := range gpus {
		isGPU[d] = true
	}
	weight := make([]time.Duration, len(h.s.sys.Devices))
	for c, ms := range h.cres.Members {
		kind := graph.KindCPU
		for _, d := range gpus {
			weight[d] = 0
		}
		for _, orig := range ms {
			nd, _ := h.s.g.Node(orig)
			if kind = nd.Kind; kind != graph.KindGPU {
				break
			}
			if d := devices[orig]; d >= 0 && int(d) < len(isGPU) && isGPU[d] {
				weight[d] += nd.Cost + 1
			}
		}
		if kind != graph.KindGPU {
			assign[c] = h.s.sys.CPUID()
			continue
		}
		best := gpus[0]
		for _, d := range gpus[1:] {
			if weight[d] > weight[best] {
				best = d
			}
		}
		assign[c] = best
	}
	return assign
}

// expandDevices lifts a coarse device assignment to the original nodes.
func (h *heuristic) expandDevices(assign []sim.DeviceID) []sim.DeviceID {
	out := make([]sim.DeviceID, h.s.g.NumNodes())
	for i := range out {
		out[i] = assign[h.cres.CoarseOf[i]]
	}
	return out
}

// refine hill-climbs the best assignment by flipping one coarse node
// (or one colocation group) at a time until no move helps or the
// context's deadline passes. Each round scores every single-move
// neighbour of the current assignment concurrently through the pool,
// then applies the best strictly-improving one (earliest in move order
// on ties). Because the candidate set of a round depends only on the
// current assignment — never on worker count or completion order — the
// climb visits the same sequence of assignments at any parallelism.
//
// A round scores its neighbours below the current best's makespan: a
// schedule cut there has a makespan, hence an objective, no better
// than the current best's, which the strict-improvement test rejects
// anyway, and the winner is always simulated in full. The limit is
// fixed for the round, so what is cut does not depend on timing either.
func (h *heuristic) refine(ctx context.Context) {
	if h.coarseBest == nil {
		return
	}
	gpus := h.s.sys.GPUs()
	nodes := h.cg.Nodes()
	// Group flips by colocation so groups move wholesale.
	groups := make(map[string][]graph.NodeID)
	var singles []graph.NodeID
	for _, nd := range nodes {
		if nd.Kind != graph.KindGPU {
			continue
		}
		if nd.Coloc != "" {
			groups[nd.Coloc] = append(groups[nd.Coloc], nd.ID)
		} else {
			singles = append(singles, nd.ID)
		}
	}
	// Highest-cost movers first: they change the balance the most.
	sort.Slice(singles, func(a, b int) bool {
		if nodes[singles[a]].Cost != nodes[singles[b]].Cost {
			return nodes[singles[a]].Cost > nodes[singles[b]].Cost
		}
		return singles[a] < singles[b]
	})
	moves := make([][]graph.NodeID, 0, len(singles)+len(groups))
	for _, id := range singles {
		moves = append(moves, []graph.NodeID{id})
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		moves = append(moves, groups[k])
	}
	if h.movable != nil {
		// Restricted climb: a move survives when any node it flips is
		// movable (a colocation group straddling the dirty boundary
		// must still move wholesale).
		kept := moves[:0]
		for _, mv := range moves {
			for _, id := range mv {
				if int(id) < len(h.movable) && h.movable[id] {
					kept = append(kept, mv)
					break
				}
			}
		}
		moves = kept
	}

	// A neighbour is moves[move] flipped to target. Workers expand it
	// into a pooled buffer: the current best's expansion with the moved
	// coarse nodes' members overwritten.
	type neighbour struct {
		move   int
		target sim.DeviceID
	}
	bufs := sync.Pool{New: func() any {
		buf := make([]sim.DeviceID, h.s.g.NumNodes())
		return &buf
	}}
	var cands []neighbour
	for {
		h.s.rec.Add("placement.refine.rounds", 1)
		// Enumerate every single-move neighbour of the current best.
		cands = cands[:0]
		for i, mv := range moves {
			for _, target := range gpus {
				if h.coarseBest[mv[0]] != target {
					cands = append(cands, neighbour{move: i, target: target})
				}
			}
		}
		base, limit := h.expandDevices(h.coarseBest), h.coarseBestMk
		outs, err := engine.Map(ctx, h.s.pool, len(cands), func(_ context.Context, i int) (scored, error) {
			buf := bufs.Get().(*[]sim.DeviceID)
			defer bufs.Put(buf)
			expanded := *buf
			copy(expanded, base)
			for _, id := range moves[cands[i].move] {
				for _, orig := range h.cres.Members[id] {
					expanded[orig] = cands[i].target
				}
			}
			return h.scoreBelow(expanded, limit), nil
		})
		if err != nil {
			return // deadline or caller cancellation: keep the best so far
		}
		// Apply the best strictly-improving neighbour, first-wins on ties.
		best := -1
		for i, o := range outs {
			if !o.Value.ok || o.Value.obj >= h.coarseBestObj-1e-12 {
				continue
			}
			if best < 0 || o.Value.obj < outs[best].Value.obj {
				best = i
			}
		}
		if best < 0 {
			return
		}
		assign := append([]sim.DeviceID(nil), h.coarseBest...)
		for _, id := range moves[cands[best].move] {
			assign[id] = cands[best].target
		}
		h.record(assign, h.expandDevices(assign), outs[best].Value)
	}
}

// simSystem is the world model the heuristics evaluate against: memory
// capacities are lifted when the ILP's memory constraints are disabled,
// and links become infinitely parallel when the congestion constraints
// are disabled — the planner then believes what a congestion-free ILP
// believes (the Figure 5 ablation), even though the real system still
// serializes transfers.
func simSystem(sys sim.System, opts Options) sim.System {
	if opts.DisableCongestion {
		// The congestion-blind world model of prior DAG schedulers the
		// paper calls out (§3.2.2): unlimited link bandwidth AND
		// communication much faster than computation.
		sys.CongestionFree = true
		sys.Comm = sys.Comm.Scaled(1e6)
	}
	if opts.DisableMemory {
		sys.Devices = append([]sim.Device(nil), sys.Devices...)
		for i := range sys.Devices {
			sys.Devices[i].Memory = 0
		}
	}
	return sys
}

// bottomLevels computes each node's cost-weighted longest path to a
// sink, the classic list-scheduling priority.
func bottomLevels(g *graph.Graph) []float64 {
	bl := make([]float64, g.NumNodes())
	order, err := g.TopoSort()
	if err != nil {
		return bl
	}
	nodes := g.Nodes()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, e := range g.Succ(v) {
			if bl[e.To] > bl[v] {
				bl[v] = bl[e.To]
			}
		}
		bl[v] += float64(nodes[v].Cost)
	}
	return bl
}

// repairColocAssign forces colocation groups onto the device of the
// group's compute-time majority, for assignment-based seeds.
func (h *heuristic) repairColocAssign(assign []sim.DeviceID) {
	gpus := h.s.sys.GPUs()
	groupMass := make(map[string]map[sim.DeviceID]time.Duration)
	nodes := h.cg.Nodes()
	for _, nd := range nodes {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" {
			continue
		}
		if groupMass[nd.Coloc] == nil {
			groupMass[nd.Coloc] = make(map[sim.DeviceID]time.Duration, len(gpus))
		}
		groupMass[nd.Coloc][assign[nd.ID]] += nd.Cost + 1
	}
	winner := make(map[string]sim.DeviceID, len(groupMass))
	for grp, mass := range groupMass {
		best := gpus[0]
		for _, d := range gpus {
			if mass[d] > mass[best] {
				best = d
			}
		}
		winner[grp] = best
	}
	for _, nd := range nodes {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" {
			continue
		}
		assign[nd.ID] = winner[nd.Coloc]
	}
}

// repairMemory greedily moves the largest-memory movable nodes off an
// over-capacity GPU.
func (h *heuristic) repairMemory(assign []sim.DeviceID) {
	if h.s.opts.DisableMemory {
		return
	}
	gpus := h.s.sys.GPUs()
	nodes := h.cg.Nodes()
	use := map[sim.DeviceID]int64{}
	for i, nd := range nodes {
		if nd.Kind == graph.KindGPU {
			use[assign[i]] += nd.Memory
		}
	}
	for _, from := range gpus {
		dev, _ := h.s.sys.Device(from)
		if dev.Memory <= 0 {
			continue
		}
		leastLoaded := func() sim.DeviceID {
			to := from
			for _, g2 := range gpus {
				if g2 == from {
					continue
				}
				if to == from || use[g2] < use[to] {
					to = g2
				}
			}
			return to
		}
		for use[from] > dev.Memory {
			to := leastLoaded()
			if to == from {
				return
			}
			// Move the largest non-colocated node (coloc groups move
			// wholesale, skipped here for simplicity — groups are
			// typically small).
			bestIdx := -1
			var bestMem int64
			for i, nd := range nodes {
				if nd.Kind == graph.KindGPU && assign[i] == from && nd.Coloc == "" && nd.Memory > bestMem {
					bestMem = nd.Memory
					bestIdx = i
				}
			}
			if bestIdx < 0 {
				return // nothing movable; CheckMemory will reject
			}
			assign[bestIdx] = to
			use[from] -= bestMem
			use[to] += bestMem
		}
	}
}
