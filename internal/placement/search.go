package placement

import (
	"context"
	"fmt"
	"math"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/coarsen"
	"pesto/internal/comm"
	"pesto/internal/engine"
	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/sim"
)

// search is one placement search session, the set-up every entry point
// shares: the coarsened graph, one worker pool, the budget deadline, the
// telemetry recorder and one scorer, with the fine-granularity heuristic
// that seeds, refines and keeps the best candidate (§3.3's coarsen →
// search → keep what the simulator scores best). finish turns its winner
// into a Result.
type search struct {
	g     *graph.Graph
	sys   sim.System // the system searched against (survivors after a failure)
	opts  Options
	start time.Time
	pool  *engine.Pool
	// rec is the telemetry recorder cached off the context once at
	// construction: scoring runs on worker goroutines in the hottest
	// loop, where a context lookup per call would cost more than the
	// counter itself. Nil disables recording.
	rec *obs.Recorder
	// simSys is the world model candidates are scored against
	// (simSystem), sc the simulator tables of g on it and prio g's
	// bottom levels, the priority schedule's ranks. Every level of the
	// session shares them; scoring only reads them, so sibling scores
	// run concurrently.
	simSys sim.System
	sc     *sim.Scorer
	prio   []float64
	// sctx expires at start+ILPTimeLimit. Only the open-ended refinement
	// runs on it: seeds and the finish run on the caller's context, so an
	// exhausted budget still yields a plan, and caller cancellation is
	// checked against the caller's context — a spent budget is normal, a
	// cancelled caller is an error.
	sctx   context.Context
	cancel context.CancelFunc
	// h is the fine granularity (CoarsenTarget) every entry point
	// searches.
	h *heuristic
}

// newSearch coarsens g to opts.CoarsenTarget under the placement.coarsen
// span and sets up a session searching sys from start. opts must already
// carry its defaults. The caller releases the deadline with cancel.
func newSearch(ctx context.Context, g *graph.Graph, sys sim.System, opts Options, start time.Time) (*search, error) {
	cres, err := coarsenTo(ctx, g, opts.CoarsenTarget)
	if err != nil {
		return nil, err
	}
	simSys := simSystem(sys, opts)
	s := &search{g: g, sys: sys, opts: opts, start: start, pool: engine.New(opts.Parallel), rec: obs.From(ctx),
		simSys: simSys, sc: sim.NewScorer(g, simSys), prio: bottomLevels(g)}
	s.sctx, s.cancel = context.WithDeadline(ctx, start.Add(opts.ILPTimeLimit))
	s.h = s.level(cres, nil)
	return s, nil
}

// coarsenTo coarsens g to target under a placement.coarsen span.
func coarsenTo(ctx context.Context, g *graph.Graph, target int) (*coarsen.Result, error) {
	_, span := obs.Start(ctx, "placement.coarsen", obs.Int("target", int64(target)))
	cres, err := coarsen.Coarsen(g, coarsen.Options{Target: target})
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return nil, fmt.Errorf("pesto coarsen: %w", err)
	}
	span.End(obs.Int("coarse-nodes", int64(cres.Coarse.NumNodes())))
	return cres, nil
}

// level builds a heuristic over one coarsening of the session's graph.
// Bound to the exact model m it is the ILP granularity, normalized by the
// model's horizon; without one it is normalized by horizonFor.
func (s *search) level(cres *coarsen.Result, m *model) *heuristic {
	h := &heuristic{s: s, model: m, cg: cres.Coarse, cres: cres}
	if m != nil {
		h.horizon = m.horizon
	} else {
		h.horizon = horizonFor(s.g, s.sys)
	}
	return h
}

// seedAndRefine is the cold search: every warm start (and adopt, an
// original-granularity vector from elsewhere, when non-nil) as one batch
// under the placement.seed span, then the budget-bound hill climb under
// placement.refine.
func (s *search) seedAndRefine(ctx context.Context, adopt []sim.DeviceID) error {
	h := s.h
	_, seedSpan := obs.Start(ctx, "placement.seed")
	var cands []candidate
	for _, assign := range h.seedCandidates() {
		cands = append(cands, candidate{assign: assign})
	}
	cands = append(cands, projected(s.listScheduling(ctx)...)...)
	cands = append(cands, projected(s.baselineDevices(ctx)...)...)
	if adopt != nil {
		cands = append(cands, projected(adopt)...)
	}
	h.submit(ctx, cands...)
	seedSpan.End(obs.F64("objective", h.bestObj))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pesto: cancelled during warm start: %w", err)
	}
	roundsBefore := s.rec.Counter("placement.refine.rounds")
	_, refineSpan := obs.Start(ctx, "placement.refine")
	h.refine(s.sctx)
	refineSpan.End(obs.Int("rounds", s.rec.Counter("placement.refine.rounds")-roundsBefore),
		obs.F64("objective", h.bestObj))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("pesto: cancelled during refinement: %w", err)
	}
	return nil
}

// listScheduling returns the earliest-start list-scheduling placements
// of the original graph, without a favorite-child credit and with the
// parent-count one, built concurrently; none when ctx is done.
func (s *search) listScheduling(ctx context.Context) [][]sim.DeviceID {
	rules := [...]baselines.FavoriteRule{baselines.NoFavorite, baselines.ParentCount}
	outs, err := engine.Map(ctx, s.pool, len(rules), func(_ context.Context, i int) ([]sim.DeviceID, error) {
		return baselines.ListSchedule(s.g, s.simSys, rules[i])
	})
	if err != nil {
		return nil
	}
	var devs [][]sim.DeviceID
	for _, o := range outs {
		if o.Err == nil {
			devs = append(devs, o.Value)
		}
	}
	return devs
}

// baselineDevices returns the published baseline placements — the same
// candidate set the ladder's fallback rung would serve — as seeds.
// Adopting them makes the ladder's quality monotone by construction: a
// rung that seeds them starts from (and hill-climbs away from) the best
// plan the fallback rung could return, so degrading a rung can never
// improve the answer. The 1000-instance differential sweep holds the
// ladder to exactly this property. None when ctx is done.
func (s *search) baselineDevices(ctx context.Context) [][]sim.DeviceID {
	if ctx.Err() != nil {
		return nil
	}
	plans := baselinePlans(ctx, s.pool, s.g, s.sys)
	devs := make([][]sim.DeviceID, len(plans))
	for i, p := range plans {
		devs[i] = p.Plan.Device
	}
	return devs
}

// finish realizes the session's best device vector under the schedule
// disciplines (candidatePlans, then finalize) and assembles the Result
// around it: the simulated winner, the predicted (best scored) makespan,
// the coarse size and the placement time.
func (s *search) finish(ctx context.Context) (*Result, error) {
	h := s.h
	if h.bestDev == nil {
		return nil, fmt.Errorf("pesto: no candidate plan simulates: %w", ErrNoPlacement)
	}
	plan, mk, err := s.finalize(ctx, s.candidatePlans(h.bestDev))
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan:              plan,
		CoarseSize:        h.cg.NumNodes(),
		ILPStatus:         ilp.FeasibleStatus,
		PredictedMakespan: time.Duration(h.bestObj * float64(h.horizon)),
		SimulatedMakespan: mk,
		PlacementTime:     time.Since(s.start),
	}, nil
}

// finalize realizes candidate original-graph plans and returns the one
// with the lowest simulated makespan and the makespan. With
// ScheduleFromILP a candidate without an explicit order first gets one
// from its simulated start times (orderByRun), so downstream consumers
// (e.g. the runtime executor) get control dependencies either way;
// without it the winner is returned placement-only. The candidates are
// realized concurrently and the winner is reduced in candidate order
// (first wins ties), so the result is independent of worker count.
func (s *search) finalize(ctx context.Context, cands []sim.Plan) (sim.Plan, time.Duration, error) {
	type finalized struct {
		plan sim.Plan
		mk   time.Duration
		ok   bool
	}
	outs, err := engine.Map(ctx, s.pool, len(cands), func(_ context.Context, i int) (finalized, error) {
		cand := cands[i]
		if cand.Order == nil && s.opts.ScheduleFromILP {
			oc, err := orderByRun(s.g, s.simSys, cand)
			if err != nil {
				return finalized{}, nil
			}
			cand = oc
		}
		mk, err := s.sc.Makespan(cand)
		if err != nil {
			return finalized{}, nil
		}
		return finalized{plan: cand, mk: mk, ok: true}, nil
	})
	if err != nil {
		return sim.Plan{}, 0, fmt.Errorf("pesto: cancelled during candidate evaluation: %w", err)
	}
	best := -1
	for i, o := range outs {
		if o.Err != nil || !o.Value.ok {
			continue
		}
		if best < 0 || o.Value.mk < outs[best].Value.mk {
			best = i
		}
	}
	if best < 0 {
		return sim.Plan{}, 0, fmt.Errorf("pesto: no candidate plan simulates: %w", ErrNoPlacement)
	}
	plan := outs[best].Value.plan
	if !s.opts.ScheduleFromILP {
		plan = sim.Plan{Device: plan.Device, Policy: sim.PolicyFIFO}
	}
	return plan, outs[best].Value.mk, nil
}

// candidatePlans returns the original-graph schedules tried for one
// expanded assignment. Without ScheduleFromILP the returned plan is
// placement-only (the simulator's ready queue schedules it), so only
// the FIFO realization is scored — evaluating a priority schedule that
// the final plan then drops would let the search pick a vector whose
// realized makespan is worse than its score, breaking the ladder's
// monotonicity against the FIFO-realized baselines.
func (s *search) candidatePlans(expanded []sim.DeviceID) []sim.Plan {
	if !s.opts.ScheduleFromILP {
		return []sim.Plan{{Device: expanded, Policy: sim.PolicyFIFO}}
	}
	return []sim.Plan{
		{Device: expanded, Policy: sim.PolicyFIFO},
		{Device: expanded, Policy: sim.PolicyPriority, Priority: s.prio},
	}
}

// candidate is one placement submitted to a level of the search. A
// coarse assignment (assign) is repaired, expanded and scored, and when
// it wins it is also refine's starting point. An original-granularity
// vector (dev) is scored and recorded as it is; with project set, its
// projection onto the level's granularity follows it as a coarse
// assignment, unrepaired — letting a vector from elsewhere seed the
// level's refinement.
type candidate struct {
	assign  []sim.DeviceID
	dev     []sim.DeviceID
	project bool
}

// projected wraps original-granularity vectors as candidates that are
// also projected onto the level's granularity.
func projected(devs ...[]sim.DeviceID) []candidate {
	cands := make([]candidate, len(devs))
	for i, dev := range devs {
		cands[i] = candidate{dev: dev, project: true}
	}
	return cands
}

// scored is the outcome of scoring one device vector: its best
// normalized makespan over the schedule disciplines tried, and that
// makespan.
type scored struct {
	obj float64
	mk  time.Duration
	ok  bool
}

// unbounded is the limit of a scoring no makespan can reach: it runs
// every schedule to the end.
const unbounded = time.Duration(math.MaxInt64)

// submit scores a batch of candidates in one engine.Map and records the
// results on the calling goroutine in submission order — each
// candidate, then its projection — so the bests are independent of
// worker count. Coarse assignments are repaired in place first. Every
// candidate is scored, even past ctx's deadline. It reports whether
// every vector it scored simulates.
func (h *heuristic) submit(ctx context.Context, cands ...candidate) bool {
	var assigns, devs [][]sim.DeviceID
	for _, c := range cands {
		if c.assign != nil {
			h.repairColocAssign(c.assign)
			h.repairMemory(c.assign)
			assigns, devs = append(assigns, c.assign), append(devs, h.expandDevices(c.assign))
			continue
		}
		assigns, devs = append(assigns, nil), append(devs, c.dev)
		if c.project {
			assign := h.projectOriginal(c.dev)
			assigns, devs = append(assigns, assign), append(devs, h.expandDevices(assign))
		}
	}
	outs, _ := engine.Map(context.WithoutCancel(ctx), h.s.pool, len(devs), func(_ context.Context, i int) (scored, error) {
		return h.scoreBelow(devs[i], unbounded), nil
	})
	ok := true
	for i, o := range outs {
		h.record(assigns[i], devs[i], o.Value)
		ok = ok && o.Value.ok
	}
	return ok
}

// horizonFor is the objective normalization unit used when no ILP model
// exists: total compute plus a worst-case communication bound.
func horizonFor(g *graph.Graph, sys sim.System) time.Duration {
	h := g.TotalCost()
	for _, e := range g.Edges() {
		h += sys.Comm.Time(comm.GPUToGPU, e.Bytes)
	}
	if h <= 0 {
		h = time.Nanosecond
	}
	return h
}

// stageAssign turns a contiguous-split partition of cg into a coarse
// device vector: every stage's nodes on its device, the rest on the CPU.
func stageAssign(cg *graph.Graph, sys sim.System, part *pipeline.Partition) []sim.DeviceID {
	assign := make([]sim.DeviceID, cg.NumNodes())
	cpu := sys.CPUID()
	for i := range assign {
		assign[i] = cpu
	}
	for _, st := range part.Stages {
		for _, id := range st.Nodes {
			assign[id] = st.Device
		}
	}
	return assign
}
