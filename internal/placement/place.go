package placement

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// CoarsePlan is the same plan at coarse granularity.
	CoarsePlan sim.Plan
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
	// Gap == 0 with OptimalStatus is the Theorem 3.1 regime.
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
	// CoarsenIterations reports coarsening effort.
	CoarsenIterations int
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
		_, coarsenSpan := obs.Start(ctx, "placement.coarsen", obs.Int("target", ilpMaxSize))
		ilpCres, err = coarsen.Coarsen(g, coarsen.Options{Target: ilpMaxSize})
		if err != nil {
			coarsenSpan.End(obs.String("outcome", "error"))
			return nil, fmt.Errorf("pesto coarsen (ilp level): %w", err)
		}
		coarsenSpan.End(obs.Int("ilp-nodes", int64(ilpCres.Coarse.NumNodes())))
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
		hILP.evalAssign(m.assignmentFromX(sol.X))
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
		CoarseSize:        h.cg.NumNodes(),
		LPVars:            m.lp.NumVars(),
		LPRows:            m.lp.NumConstraints(),
		LPGroups:          len(m.xGroups),
		ILPStatus:         sol.Status,
		Gap:               sol.Gap,
		Nodes:             sol.Nodes,
		CoarsenIterations: h.cres.Iterations,
	}

	// Collect candidate plans: the ILP's solution (whose C_max can be
	// optimistic when constraint pairs were capped) and the heuristic's
	// best vector. The ILP's coarse plan is expanded to the original
	// graph with the strict blob order its start times imply and under
	// the schedule disciplines (the paper's §3.3 fallback "when each
	// vertex in the final coarsened graph may contain hundreds of
	// operations ... instead employ the default TensorFlow
	// scheduling"); the realized simulated makespan decides. Every
	// variant remembers the coarse plan it came from.
	var variants, coarseOf []sim.Plan
	add := func(coarse sim.Plan, vs ...sim.Plan) {
		for _, v := range vs {
			variants, coarseOf = append(variants, v), append(coarseOf, coarse)
		}
	}
	if ilpSolved {
		res.PredictedMakespan = time.Duration(sol.Objective * float64(m.horizon))
		cp, err := m.coarsePlan(sol.X)
		if err != nil {
			return nil, err
		}
		add(cp, h.candidatePlans(hILP.expandDevices(cp.Device))...)
		add(cp, expandOrdered(g, ilpCres, cp))
	}
	if h.bestDev != nil {
		if !ilpSolved {
			res.PredictedMakespan = time.Duration(h.bestObj * float64(m.horizon))
			if res.ILPStatus == ilp.NoSolutionStatus || res.ILPStatus == ilp.InfeasibleStatus {
				res.ILPStatus = ilp.FeasibleStatus
			}
		}
		// The global winner is already an original-granularity device
		// vector; it stands as its own coarse plan.
		dev := append([]sim.DeviceID(nil), h.bestDev...)
		add(sim.Plan{Device: dev, Policy: sim.PolicyFIFO}, h.candidatePlans(dev)...)
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("pesto: ilp %v and no heuristic incumbent: %w", sol.Status, ErrNoPlacement)
	}
	_, candSpan := obs.Start(ctx, "placement.candidates", obs.Int("variants", int64(len(variants))))
	bestPlan, bestMk, best, err := h.finalize(ctx, variants)
	candSpan.End()
	if err != nil {
		return nil, err
	}
	res.CoarsePlan = coarseOf[best]
	res.Plan = bestPlan
	res.SimulatedMakespan = bestMk
	res.PlacementTime = time.Since(start)
	return res, nil
}

// orderPlanByStarts attaches an explicit per-device order to a plan,
// sorted by observed start times (ties broken topologically).
func orderPlanByStarts(g *graph.Graph, plan sim.Plan, starts []time.Duration, numDevices int) (sim.Plan, error) {
	order, err := orderByStarts(g, plan.Device, starts, numDevices)
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

// assignmentFromX reads the coarse placement from an ILP solution
// vector.
func (m *model) assignmentFromX(x []float64) []sim.DeviceID {
	gpus := m.sys.GPUs()
	out := make([]sim.DeviceID, m.g.NumNodes())
	for i, nd := range m.g.Nodes() {
		switch nd.Kind {
		case graph.KindGPU:
			if x != nil && m.xVar[i] >= 0 && x[m.xVar[i]] >= 0.5 {
				out[i] = gpus[1]
			} else {
				out[i] = gpus[0]
			}
		default:
			out[i] = m.sys.CPUID()
		}
	}
	return out
}

// coarsePlan builds the coarse-graph plan of an ILP solution: the
// placement its x variables select, each device ordered by the ILP
// start times.
func (m *model) coarsePlan(x []float64) (sim.Plan, error) {
	assign := m.assignmentFromX(x)
	starts := make([]float64, len(assign))
	for i := range assign {
		if m.sOp[i] < len(x) {
			starts[i] = x[m.sOp[i]]
		}
	}
	order, err := orderByStarts(m.g, assign, starts, len(m.sys.Devices))
	return sim.Plan{Device: assign, Order: order}, err
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

// heuristic supplies feasible incumbents to the branch and bound by
// rounding the LP relaxation's placement variables and list-scheduling
// the coarse graph through the simulator. Two ready-queue disciplines
// are tried per rounding — FIFO (the TensorFlow default) and
// cost-weighted critical-path priority (which schedules heavy ops like
// Figure 2's F and G first) — and the better schedule becomes the
// incumbent.
type heuristic struct {
	// model is set only at the ILP granularity (for x-vector interop
	// with the branch and bound); fine-granularity heuristics leave it
	// nil.
	model   *model
	cg      *graph.Graph // coarse graph at this granularity
	sys     sim.System
	horizon time.Duration // objective normalization unit
	opts    Options
	// orig and cres let the heuristic evaluate candidates on the
	// original graph: coarse-level simulation serializes whole blobs
	// and systematically overestimates split placements, which would
	// bias the search towards single-GPU plans.
	orig *graph.Graph
	cres *coarsen.Result
	prio []float64 // cost-weighted bottom levels of orig, lazy
	// scorerOnce builds sc, the simulator tables every candidate of
	// this heuristic is scored against (orig on simSystem), on first
	// use.
	scorerOnce sync.Once
	sc         *sim.Scorer
	// pool evaluates independent candidates concurrently. Scoring is
	// pure (scoreOriginal); all best-so-far recording happens on the
	// submitting goroutine in submission order, so results are
	// identical at any worker count.
	pool *engine.Pool
	// rec is the telemetry recorder cached off the context once at
	// construction: scoreOriginal runs on worker goroutines in the
	// hottest loop, where a context lookup per call would cost more
	// than the counter itself. Nil disables recording.
	rec *obs.Recorder

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

	// Refinement state at this heuristic's coarse granularity.
	coarseBest    []sim.DeviceID
	coarseBestObj float64
}

// seedCandidates builds the deterministic warm-start placements at this
// heuristic's coarse granularity: all-on-GPU-0, alternation by
// topological index (two phases), a contiguous compute-balanced split
// (the Expert shape), and a layer-contiguous split. seedAssignments
// scores them for the cold pipeline; the incremental path blends them
// onto its dirty region as extra restart basins.
func (h *heuristic) seedCandidates() [][]sim.DeviceID {
	order, err := h.cg.TopoSort()
	if err != nil {
		return nil
	}
	gpus := h.sys.GPUs()
	k := len(gpus)
	nodes := h.cg.Nodes()
	mk := func(f func(pos int, id graph.NodeID) int) []sim.DeviceID {
		assign := make([]sim.DeviceID, len(nodes))
		for pos, id := range order {
			if nodes[id].Kind == graph.KindGPU {
				assign[id] = gpus[f(pos, id)%k]
			} else {
				assign[id] = h.sys.CPUID()
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
	if dp := dpSplitAssign(h.cg, h.sys); dp != nil {
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

// seedAssignments evaluates the seedCandidates placements before any
// search runs. Each goes through colocation and memory repair and both
// schedule disciplines; the seeds are scored concurrently and recorded
// in submission order.
func (h *heuristic) seedAssignments(ctx context.Context) {
	seeds := h.seedCandidates()
	if seeds == nil {
		return
	}
	for _, assign := range seeds {
		h.repairColocAssign(assign)
		h.repairMemory(assign)
	}
	h.bottomLevels() // warm the lazy priority cache before fanning out
	expanded := make([][]sim.DeviceID, len(seeds))
	for i := range seeds {
		expanded[i] = h.expandDevices(seeds[i])
	}
	outs, err := engine.Map(ctx, h.pool, len(seeds), func(_ context.Context, i int) (scored, error) {
		return h.scoreOriginal(expanded[i]), nil
	})
	if err != nil {
		return
	}
	for i, o := range outs {
		if o.Err == nil && o.Value.ok {
			h.adoptScored(seeds[i], expanded[i], o.Value)
		}
	}
}

// seedBaselines warm-starts the search with the published baseline
// placements — the same candidate set the ladder's fallback rung would
// serve. Adopting them here makes the ladder's quality monotone by
// construction: the refine rung starts from (and hill-climbs away
// from) the best plan the fallback rung could return, so degrading a
// rung can never improve the answer. The 1000-instance differential
// sweep holds the ladder to exactly this property.
func (h *heuristic) seedBaselines(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	for _, p := range baselinePlans(h.orig, h.sys) {
		h.adoptOriginal(p.Device)
	}
}

// baselinePlans returns the published baseline placements that apply
// to g on sys: the best Baechi heuristic, HEFT and single-GPU.
func baselinePlans(g *graph.Graph, sys sim.System) []sim.Plan {
	var plans []sim.Plan
	if p, _, _, err := baselines.BestBaechi(g, sys); err == nil {
		plans = append(plans, p)
	}
	if p, err := baselines.HEFT(g, sys); err == nil {
		plans = append(plans, p)
	}
	if p, err := baselines.SingleGPU(g, sys); err == nil {
		plans = append(plans, p)
	}
	return plans
}

// seedListScheduling warm-starts the search with greedy
// earliest-start-time placements computed on the original graph (with
// and without the SCT favorite-child bias), projected to this
// granularity. The two greedy builds run concurrently; adoption is
// sequential in submission order.
func (h *heuristic) seedListScheduling(ctx context.Context) {
	simSys := h.simSystem()
	outs, err := engine.Map(ctx, h.pool, 2, func(_ context.Context, i int) ([]sim.DeviceID, error) {
		return greedyETF(h.orig, simSys, i == 1)
	})
	if err != nil {
		return
	}
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		h.adoptOriginal(o.Value)
	}
}

// greedyETF builds an earliest-task-first placement: repeatedly assign
// the ready operation that can start soonest on a memory-feasible
// device, accounting for communication from already-placed parents.
// With sct, each task's largest-tensor successor is biased towards the
// parent's device.
func greedyETF(g *graph.Graph, sys sim.System, sct bool) ([]sim.DeviceID, error) {
	gpus := sys.GPUs()
	n := g.NumNodes()
	nodes := g.Nodes()
	dev := make([]sim.DeviceID, n)
	fav := make([]graph.NodeID, n)
	for i := range fav {
		fav[i] = -1
	}
	if sct {
		for i := 0; i < n; i++ {
			var best int64 = -1
			for _, e := range g.Succ(graph.NodeID(i)) {
				if e.Bytes > best {
					best = e.Bytes
					fav[i] = e.To
				}
			}
		}
	}
	devFree := make([]time.Duration, len(sys.Devices))
	memUsed := make([]int64, len(sys.Devices))
	cpuOnly := []sim.DeviceID{sys.CPUID()}
	finish := make([]time.Duration, n)
	pending := make([]int, n)
	var ready []graph.NodeID
	for i := 0; i < n; i++ {
		pending[i] = g.InDegree(graph.NodeID(i))
		if pending[i] == 0 {
			ready = append(ready, graph.NodeID(i))
		}
	}
	est := func(id graph.NodeID, d sim.DeviceID) time.Duration {
		t := devFree[d]
		for _, e := range g.Pred(id) {
			arr := finish[e.From]
			if dev[e.From] != d {
				arr += sys.TransferTime(dev[e.From], d, e.Bytes)
			}
			if arr > t {
				t = arr
			}
		}
		return t
	}
	for len(ready) > 0 {
		slices.Sort(ready)
		bestI := -1
		var bestDev sim.DeviceID
		bestScore := time.Duration(math.MaxInt64)
		for ri, id := range ready {
			nd := nodes[id]
			cands := gpus
			if nd.Kind != graph.KindGPU {
				cands = cpuOnly
			}
			for _, d := range cands {
				if nd.Kind == graph.KindGPU && memUsed[d]+nd.Memory > memCap(sys, d) {
					continue
				}
				score := est(id, d)
				if sct {
					for _, e := range g.Pred(id) {
						if fav[e.From] == id && dev[e.From] == d {
							score -= score / 8
						}
					}
				}
				if score < bestScore {
					bestScore, bestI, bestDev = score, ri, d
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("greedy etf: no device fits any ready op: %w", sim.ErrOOM)
		}
		id := ready[bestI]
		ready = append(ready[:bestI], ready[bestI+1:]...)
		nd := nodes[id]
		startT := est(id, bestDev)
		finish[id] = startT + nd.Cost
		devFree[bestDev] = finish[id]
		dev[id] = bestDev
		if nd.Kind == graph.KindGPU {
			memUsed[bestDev] += nd.Memory
		}
		for _, e := range g.Succ(id) {
			pending[e.To]--
			if pending[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return dev, nil
}

// tryIncumbent implements ilp.Options.Incumbent. It requires the
// heuristic to be bound to the ILP model.
func (h *heuristic) tryIncumbent(relaxed []float64) ([]float64, float64, bool) {
	assign := h.model.assignmentFromX(relaxed)
	h.repairColoc(assign, relaxed)
	h.repairMemory(assign)
	if !h.evalAssign(assign) {
		return nil, 0, false
	}
	// Report only the objective back to the B&B for pruning; the
	// placement layer keeps the plan itself. The returned vector just
	// carries the x values so assignmentFromX could reproduce it.
	x := make([]float64, h.model.lp.NumVars())
	gpus := h.sys.GPUs()
	for i := range h.model.xVar {
		if h.model.xVar[i] >= 0 && h.coarseBest[i] == gpus[1] {
			x[h.model.xVar[i]] = 1
		}
	}
	return x, h.coarseBestObj, true
}

// scored is the outcome of scoring one device vector: its best
// normalized makespan over the schedule disciplines tried.
type scored struct {
	obj float64
	ok  bool
}

// scorer returns the heuristic's simulator tables, building them on
// first use.
func (h *heuristic) scorer() *sim.Scorer {
	h.scorerOnce.Do(func() { h.sc = sim.NewScorer(h.orig, h.simSystem()) })
	return h.sc
}

// scoreOriginal simulates an original-granularity device vector under
// both schedule disciplines and reports the better one. It never
// mutates the heuristic, so sibling scores may run concurrently —
// provided bottomLevels has been warmed first (it backs the priority
// plan and is itself lazily cached).
func (h *heuristic) scoreOriginal(dev []sim.DeviceID) scored {
	sc := h.scorer()
	out := scored{obj: math.Inf(1)}
	for _, plan := range h.candidatePlans(dev) {
		h.rec.Add("placement.sims", 1)
		mk, err := sc.Makespan(plan)
		if err != nil {
			continue
		}
		if o := float64(mk) / float64(h.horizon); o < out.obj {
			out.obj = o
		}
		out.ok = true
	}
	return out
}

// recordOriginal merges one scored original-granularity vector into
// the global best. Must be called from a single goroutine, in
// submission order, so the winner is independent of worker count.
func (h *heuristic) recordOriginal(dev []sim.DeviceID, s scored) {
	if !s.ok {
		return
	}
	if h.bestDev == nil || s.obj < h.bestObj {
		h.bestDev = append([]sim.DeviceID(nil), dev...)
		h.bestObj = s.obj
	}
}

// adoptScored records a scored coarse assignment (with its expansion)
// as both the original-granularity and refinement-level best when it
// improves on them.
func (h *heuristic) adoptScored(assign, expanded []sim.DeviceID, s scored) {
	if !s.ok {
		return
	}
	h.recordOriginal(expanded, s)
	if h.coarseBest == nil || s.obj < h.coarseBestObj {
		h.coarseBest = append([]sim.DeviceID(nil), assign...)
		h.coarseBestObj = s.obj
	}
}

// evalOriginal scores and records an original-granularity device
// vector sequentially.
func (h *heuristic) evalOriginal(dev []sim.DeviceID) {
	h.recordOriginal(dev, h.scoreOriginal(dev))
}

// evalAssign expands a coarse assignment onto the original graph,
// evaluates it, and records it as the refinement starting point when it
// improves on the coarse-level best. It reports whether the assignment
// simulates.
func (h *heuristic) evalAssign(assign []sim.DeviceID) bool {
	expanded := h.expandDevices(assign)
	s := h.scoreOriginal(expanded)
	h.adoptScored(assign, expanded, s)
	return s.ok
}

// adoptOriginal projects an original-graph device vector onto this
// heuristic's coarse granularity (majority compute time per coarse
// node) and evaluates it, letting a coarser level's result seed a finer
// refinement.
func (h *heuristic) adoptOriginal(devices []sim.DeviceID) {
	h.evalOriginal(devices)
	h.evalAssign(h.projectOriginal(devices))
}

// projectOriginal maps an original-graph device vector to this
// heuristic's coarse granularity: each GPU coarse node goes to the
// healthy GPU carrying the compute-time majority of its members (ties
// to the lowest device ID, so the projection is deterministic), CPU
// coarse nodes to the CPU. Members assigned to devices outside the
// healthy GPU set — e.g. a failed device during Replan — carry no
// weight, which is what migrates them.
func (h *heuristic) projectOriginal(devices []sim.DeviceID) []sim.DeviceID {
	gpus := h.sys.GPUs()
	assign := make([]sim.DeviceID, h.cg.NumNodes())
	nodes := h.orig.Nodes()
	isGPU := make(map[sim.DeviceID]bool, len(gpus))
	for _, d := range gpus {
		isGPU[d] = true
	}
	weight := make(map[sim.DeviceID]time.Duration, len(gpus))
	for c, ms := range h.cres.Members {
		kind := graph.KindCPU
		for d := range weight {
			delete(weight, d)
		}
		for _, orig := range ms {
			kind = nodes[orig].Kind
			if kind != graph.KindGPU {
				break
			}
			if isGPU[devices[orig]] {
				weight[devices[orig]] += nodes[orig].Cost + 1
			}
		}
		if kind != graph.KindGPU {
			assign[c] = h.sys.CPUID()
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
	out := make([]sim.DeviceID, h.orig.NumNodes())
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
func (h *heuristic) refine(ctx context.Context) {
	if h.coarseBest == nil {
		return
	}
	gpus := h.sys.GPUs()
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

	h.bottomLevels() // warm the lazy priority cache before fanning out

	// A neighbour is moves[move] flipped to target. Workers expand it
	// into a pooled buffer: the current best's expansion with the moved
	// coarse nodes' members overwritten.
	type neighbour struct {
		move   int
		target sim.DeviceID
	}
	bufs := sync.Pool{New: func() any {
		buf := make([]sim.DeviceID, h.orig.NumNodes())
		return &buf
	}}
	var cands []neighbour
	for {
		h.rec.Add("placement.refine.rounds", 1)
		// Enumerate every single-move neighbour of the current best.
		cands = cands[:0]
		for i, mv := range moves {
			for _, target := range gpus {
				if h.coarseBest[mv[0]] != target {
					cands = append(cands, neighbour{move: i, target: target})
				}
			}
		}
		base := h.expandDevices(h.coarseBest)
		outs, err := engine.Map(ctx, h.pool, len(cands), func(_ context.Context, i int) (scored, error) {
			buf := bufs.Get().(*[]sim.DeviceID)
			defer bufs.Put(buf)
			expanded := *buf
			copy(expanded, base)
			for _, id := range moves[cands[i].move] {
				for _, orig := range h.cres.Members[id] {
					expanded[orig] = cands[i].target
				}
			}
			return h.scoreOriginal(expanded), nil
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
		h.adoptScored(assign, h.expandDevices(assign), outs[best].Value)
	}
}

// simSystem is the world model the heuristics evaluate against: memory
// capacities are lifted when the ILP's memory constraints are disabled,
// and links become infinitely parallel when the congestion constraints
// are disabled — the planner then believes what a congestion-free ILP
// believes (the Figure 5 ablation), even though the real system still
// serializes transfers.
func (h *heuristic) simSystem() sim.System {
	sys := h.sys
	if h.opts.DisableCongestion {
		// The congestion-blind world model of prior DAG schedulers the
		// paper calls out (§3.2.2): unlimited link bandwidth AND
		// communication much faster than computation.
		sys.CongestionFree = true
		sys.Comm = sys.Comm.Scaled(1e6)
	}
	if h.opts.DisableMemory {
		sys.Devices = append([]sim.Device(nil), h.sys.Devices...)
		for i := range sys.Devices {
			sys.Devices[i].Memory = 0
		}
	}
	return sys
}

// candidatePlans returns the original-graph schedules tried for one
// expanded assignment. Without ScheduleFromILP the returned plan is
// placement-only (the simulator's ready queue schedules it), so only
// the FIFO realization is scored — evaluating a priority schedule that
// the final plan then drops would let the search pick a vector whose
// realized makespan is worse than its score, breaking the ladder's
// monotonicity against the FIFO-realized baselines.
func (h *heuristic) candidatePlans(expanded []sim.DeviceID) []sim.Plan {
	if !h.opts.ScheduleFromILP {
		return []sim.Plan{{Device: expanded, Policy: sim.PolicyFIFO}}
	}
	return []sim.Plan{
		{Device: expanded, Policy: sim.PolicyFIFO},
		{Device: expanded, Policy: sim.PolicyPriority, Priority: h.bottomLevels()},
	}
}

// bottomLevels computes (and caches) each original node's cost-weighted
// longest path to a sink, the classic list-scheduling priority.
func (h *heuristic) bottomLevels() []float64 {
	if h.prio != nil {
		return h.prio
	}
	order, err := h.orig.TopoSort()
	if err != nil {
		h.prio = make([]float64, h.orig.NumNodes())
		return h.prio
	}
	nodes := h.orig.Nodes()
	bl := make([]float64, len(nodes))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, e := range h.orig.Succ(v) {
			if bl[e.To] > bl[v] {
				bl[v] = bl[e.To]
			}
		}
		bl[v] += float64(nodes[v].Cost)
	}
	h.prio = bl
	return bl
}

// repairColoc forces colocation groups onto one GPU (majority of the
// fractional mass). Requires the ILP model binding.
func (h *heuristic) repairColoc(assign []sim.DeviceID, relaxed []float64) {
	gpus := h.sys.GPUs()
	groupMass := make(map[string][2]float64)
	for i, nd := range h.cg.Nodes() {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" || h.model.xVar[i] < 0 {
			continue
		}
		mass := groupMass[nd.Coloc]
		v := relaxed[h.model.xVar[i]]
		mass[0] += 1 - v
		mass[1] += v
		groupMass[nd.Coloc] = mass
	}
	for i, nd := range h.cg.Nodes() {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" {
			continue
		}
		mass := groupMass[nd.Coloc]
		if mass[1] > mass[0] {
			assign[i] = gpus[1]
		} else {
			assign[i] = gpus[0]
		}
	}
}

// repairColocAssign forces colocation groups onto the device of the
// group's compute-time majority, for assignment-based seeds.
func (h *heuristic) repairColocAssign(assign []sim.DeviceID) {
	gpus := h.sys.GPUs()
	groupMass := make(map[string]map[sim.DeviceID]time.Duration)
	for _, nd := range h.cg.Nodes() {
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
	for _, nd := range h.cg.Nodes() {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" {
			continue
		}
		assign[nd.ID] = winner[nd.Coloc]
	}
}

// repairMemory greedily moves the largest-memory movable nodes off an
// over-capacity GPU.
func (h *heuristic) repairMemory(assign []sim.DeviceID) {
	if h.opts.DisableMemory {
		return
	}
	gpus := h.sys.GPUs()
	nodes := h.cg.Nodes()
	use := map[sim.DeviceID]int64{}
	for i, nd := range nodes {
		if nd.Kind == graph.KindGPU {
			use[assign[i]] += nd.Memory
		}
	}
	for _, from := range gpus {
		dev, _ := h.sys.Device(from)
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
