package placement

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/coarsen"
	"pesto/internal/graph"
	"pesto/internal/incr"
	"pesto/internal/obs"
	"pesto/internal/sim"
)

// PriorPlacement carries the plan being reused by Incremental: the
// graph it was solved for, the plan itself, and the node map relating
// the new graph's IDs back to the prior graph's (-1 marks operations
// the edits created; nil means positional identity). ChainDepth
// counts how many warm re-places already chained off the last cold
// solve — Incremental forces a cold refresh past incrMaxChain
// so quality drift cannot compound without bound. AnchorQuality is
// the lowest makespan-over-lower-bound ratio any solve in the chain's
// history has achieved (thread IncrementalInfo.AnchorQuality forward
// to keep it); zero makes Incremental bootstrap it by simulating the
// prior plan on the prior graph.
type PriorPlacement struct {
	Graph         *graph.Graph
	Plan          sim.Plan
	NodeMap       []graph.NodeID
	ChainDepth    int
	AnchorQuality float64
}

// IncrementalInfo is the provenance of one Incremental call: how much
// of the prior plan survived and why (or whether) the warm path was
// abandoned.
type IncrementalInfo struct {
	// DirtyGroups and TotalGroups count coarse groups: dirty ones were
	// re-solved, the rest kept their inherited devices.
	DirtyGroups int
	TotalGroups int
	// ReuseFraction is 1 - DirtyGroups/TotalGroups: the share of the
	// coarse graph whose placement was frozen from the prior plan.
	ReuseFraction float64
	// ChainDepth is the warm-chain length of the returned plan: 0 for
	// a cold solve, prior depth + 1 for a warm one.
	ChainDepth int
	// AnchorQuality is the lowest quality ratio — makespan over the
	// graph's placement-independent lower bound — achieved by any
	// solve in this chain's history, cold refreshes included. Callers
	// chaining warm steps thread it into the next PriorPlacement so
	// the drift detector keeps a ratchet-free record of what quality
	// is demonstrably reachable (comparing against the previous *warm*
	// step would let drift compound one margin at a time, and the last
	// cold alone can be an unluckily poor solve that masks drift).
	AnchorQuality float64
	// ColdFallback is true when Incremental answered with a cold solve
	// instead of the warm path; FallbackReason says why.
	ColdFallback   bool
	FallbackReason string
}

// Incremental re-places an edited graph by treating the prior plan as
// a partial assignment. It diffs prior.Graph against g (under
// prior.NodeMap), closes the dirty set over coarsen groups and their
// critical-path-adjacent neighbors, confirms every remaining group
// clean via its sub-fingerprint, and then re-solves only the dirty
// region: clean groups enter the hill climb with their inherited
// devices held fixed, dirty groups are movable. The result is
// verified against the full internal/verify invariant checker before
// it is returned — on any verification failure, on a dirty fraction
// above incrDirtyThreshold, on a warm chain longer than
// incrMaxChain, or on any defect in the prior, Incremental
// falls back to a cold PlaceMultiGPU solve. Either way the returned
// Result carries Provenance.Incremental accounting.
//
// Like every placement entry point, the outcome is byte-deterministic
// for fixed inputs at any Options.Parallel value.
func Incremental(ctx context.Context, g *graph.Graph, sys sim.System, prior PriorPlacement, opts Options) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	ctx, span := obs.Start(ctx, "placement.incremental",
		obs.Int("graph-nodes", int64(g.NumNodes())))

	res, err := incrementalAttempt(ctx, g, sys, prior, opts, start)
	if err != nil {
		span.End(obs.String("outcome", "error"), obs.String("error", err.Error()))
		return nil, err
	}
	info := res.Provenance.Incremental
	span.End(obs.String("outcome", "ok"),
		obs.Bool("cold-fallback", info.ColdFallback),
		obs.Int("dirty-groups", int64(info.DirtyGroups)),
		obs.F64("reuse-fraction", info.ReuseFraction))
	return res, nil
}

// incrementalAttempt runs the warm path and degrades to incrementalCold
// whenever the reuse contract cannot be met.
func incrementalAttempt(ctx context.Context, g *graph.Graph, sys sim.System, prior PriorPlacement, opts Options, start time.Time) (*Result, error) {
	if len(sys.GPUs()) < 1 {
		return nil, fmt.Errorf("pesto incremental: system has no usable GPUs: %w", ErrUnsupportedSystem)
	}
	if prior.Graph == nil {
		return incrementalCold(ctx, g, sys, opts, "no-prior", 0)
	}
	if err := prior.Plan.Validate(prior.Graph, sys); err != nil {
		return incrementalCold(ctx, g, sys, opts, "invalid-prior", 0)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("pesto incremental: edited graph: %w", err)
	}
	if prior.ChainDepth >= incrMaxChain {
		return incrementalCold(ctx, g, sys, opts, "chain-refresh", prior.AnchorQuality)
	}

	diff := incr.Compare(prior.Graph, g, prior.NodeMap)
	// Edits that insert or delete operations re-solve cold. They
	// restructure the schedule globally — freed capacity or a new
	// chain can admit a plan several percent better that no climb
	// respecting the clean-group pin reaches (measured on the edit
	// traces: pinned search with every widening and restart below
	// still lands up to 8% over a fresh solve after a delete, and no
	// reference cheaper than a cold solve detects which deletes do
	// this). Weight and edge edits keep the warm path; that is where
	// locality actually holds.
	if diff.AddedNodes+diff.RemovedNodes > 0 {
		return incrementalCold(ctx, g, sys, opts, "structural-refresh", prior.AnchorQuality)
	}
	s, err := newSearch(ctx, g, sys, opts, start)
	if err != nil {
		return nil, fmt.Errorf("pesto incremental: %w", err)
	}
	defer s.cancel()
	h, cres := s.h, s.h.cres
	total := cres.Coarse.NumNodes()

	// Dirty closure: groups touched by the diff plus critical-path
	// neighbors, then a sub-fingerprint audit of everything still
	// presumed clean — a group whose mapped prior content hashes
	// differently (or whose members don't all map) joins the dirty
	// set. The sub-fingerprints are belt and braces over the diff: an
	// undetected drift between graph versions cannot silently freeze
	// a changed group.
	dirtyGroup := make([]bool, total)
	for _, c := range incr.DirtyGroups(g, cres, diff.Dirty) {
		if int(c) < total {
			dirtyGroup[c] = true
		}
	}
	m := normalizeNodeMap(prior.Graph, g, prior.NodeMap)
	for c := 0; c < total; c++ {
		if dirtyGroup[c] {
			continue
		}
		members := cres.Members[c]
		mapped := make([]graph.NodeID, 0, len(members))
		clean := true
		for _, op := range members {
			mo := m[op]
			if mo < 0 {
				clean = false
				break
			}
			mapped = append(mapped, mo)
		}
		if !clean || coarsen.GroupFingerprint(g, members) != coarsen.GroupFingerprint(prior.Graph, mapped) {
			dirtyGroup[c] = true
		}
	}
	editDirty := 0
	for _, d := range dirtyGroup {
		if d {
			editDirty++
		}
	}
	// The locality threshold judges the *edit* footprint alone — the
	// structural widening below is a search aid, not evidence the edit
	// touched more of the graph.
	if float64(editDirty) > incrDirtyThreshold*float64(total) {
		return incrementalCold(ctx, g, sys, opts, "dirty-threshold", prior.AnchorQuality)
	}
	// Every edit shifts load along the schedule's spine — a reweight
	// stretches the path itself, an edge edit reroutes it — and the
	// restricted climb around the edit site alone cannot rebalance
	// that. Widen the movable set beyond the edit's footprint, but
	// under a hard budget: the climb below costs one simulation per
	// movable group per round, so the budget is the speedup. The
	// budget spends first on the coarse critical-path groups (makespan
	// is decided there) and then on the heaviest off-path groups (a
	// busy device's load is the other thing that pins makespan). When
	// the widened climb still cannot match from-scratch quality, the
	// drift detector below catches it and the step re-solves cold —
	// the budget trades warm-step frequency for warm-step speed, never
	// quality.
	dirty := editDirty
	budget := total / 8
	if budget < 16 {
		budget = 16
	}
	if dirty > budget {
		budget = dirty
	}
	widen := func(id graph.NodeID) {
		if int(id) < total && !dirtyGroup[id] && dirty < budget {
			dirtyGroup[id] = true
			dirty++
		}
	}
	if _, cp, cperr := cres.Coarse.CriticalPath(); cperr == nil {
		for _, c := range cp {
			widen(c)
		}
	}
	cnodes := cres.Coarse.Nodes()
	heavy := make([]graph.NodeID, 0, total)
	for _, nd := range cnodes {
		if nd.Kind == graph.KindGPU {
			heavy = append(heavy, nd.ID)
		}
	}
	sort.Slice(heavy, func(a, b int) bool {
		if cnodes[heavy[a]].Cost != cnodes[heavy[b]].Cost {
			return cnodes[heavy[a]].Cost > cnodes[heavy[b]].Cost
		}
		return heavy[a] < heavy[b]
	})
	for _, id := range heavy {
		widen(id)
	}
	info := &IncrementalInfo{
		DirtyGroups:   dirty,
		TotalGroups:   total,
		ReuseFraction: 1 - float64(dirty)/float64(max(total, 1)),
		ChainDepth:    prior.ChainDepth + 1,
	}

	// Warm search: the inherited device vector seeds the climb and
	// only dirty groups may move. No full seed sweep, no unrestricted
	// refinement — the restricted neighbourhood is where the speedup
	// comes from.
	h.movable = dirtyGroup
	inherited := inheritDevices(g, sys, prior, m)
	proj := h.projectOriginal(inherited)
	h.submit(ctx, candidate{assign: proj})
	// Re-seed the dirty region: a greedy earliest-task-first build is a
	// different constructive basin than the inherited plan, and chained
	// warm steps otherwise inherit each other's local optima. Blending
	// its devices onto the movable groups only — clean groups keep the
	// inherited device, honoring the partial-assignment contract —
	// gives the climb a second start at the cost of one greedy build
	// and two extra simulations; submit keeps whichever start
	// scores best. Everything here is counted sims: the warm path's
	// whole speedup is its simulation budget, so each start has to
	// earn its place (the cold solver's full seed sweep does not).
	etfObj := math.Inf(1)
	if etf, eerr := baselines.ListSchedule(g, s.simSys, baselines.NoFavorite); eerr == nil {
		// Score the raw build too (without adopting it — it ignores
		// the partial-assignment pin): it doubles as the escape
		// detector below.
		if sc := h.scoreBelow(etf, unbounded); sc.ok {
			etfObj = sc.obj
		}
		blend := append([]sim.DeviceID(nil), proj...)
		cand := h.projectOriginal(etf)
		for c := range blend {
			if c < len(dirtyGroup) && dirtyGroup[c] {
				blend[c] = cand[c]
			}
		}
		h.submit(ctx, candidate{assign: blend})
	}
	// Two quality detectors gate every warm answer, and the restricted
	// climb runs only when they object to the cheap starts above —
	// most edits barely move the schedule, and for those the starts
	// already pass, so the climb's simulations are pure waste.
	//
	// Escape detector: an edit can suddenly make a much better plan
	// feasible — one the warm search cannot reach because clean groups
	// are pinned. The anchor-relative drift check is blind to that
	// (the warm plan did not get worse; the graph got easier), but a
	// plain greedy build on the edited graph is not: cold adopts it as
	// a seed, so losing to it by more than the margin means a cold
	// solve would beat the warm plan by at least as much.
	//
	// Drift detector: the pinned search can land (or stay stuck) in a
	// basin a from-scratch solve would escape, and no reference
	// cheaper than a cold solve bounds that directly. The proxy is the
	// plan's makespan over the graph's placement-independent lower
	// bound, compared against the lowest such ratio the chain has ever
	// achieved: the bound moves with the graph as edits accumulate, so
	// a ratio drifting past that record means the plan — not the
	// graph — got worse. The record, not the last cold alone, is the
	// reference because cold quality itself jitters several percent
	// between neighboring graphs; a poor cold anchor would otherwise
	// hide real drift behind its own bad luck.
	anchor := prior.AnchorQuality
	if anchor == 0 {
		if mk, rerr := sim.Makespan(prior.Graph, sys, prior.Plan); rerr == nil {
			anchor = float64(mk) / float64(qualityLowerBound(prior.Graph, sys))
		}
	}
	var res *Result
	refined := false
	for {
		if h.bestDev == nil {
			return incrementalCold(ctx, g, sys, opts, "no-candidate", prior.AnchorQuality)
		}
		if h.bestObj <= etfObj*incrQualityMargin {
			r, ferr := s.finish(ctx)
			if ferr != nil {
				return incrementalCold(ctx, g, sys, opts, "finalize-failed", prior.AnchorQuality)
			}
			q := float64(r.SimulatedMakespan) / float64(qualityLowerBound(g, sys))
			if anchor <= 0 || q <= anchor*incrQualityMargin {
				if anchor == 0 || q < anchor {
					anchor = q
				}
				res = r
				break
			}
		}
		if refined {
			return incrementalCold(ctx, g, sys, opts, "quality-drift", anchor)
		}
		h.refine(s.sctx)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pesto incremental: cancelled during refinement: %w", err)
		}
		refined = true
	}
	info.AnchorQuality = anchor
	res.Provenance = Provenance{Stage: StageIncremental, Incremental: info}
	// A warm plan never ships unverified, whatever the caller asked
	// for: reuse must not be able to smuggle a stale invariant
	// violation past the checker. Verification failure is a fallback,
	// not an error — the cold path re-solves from scratch.
	vopts := opts
	vopts.Verify = true
	if verr := verifyResult(g, sys, res.Plan, vopts); verr != nil {
		return incrementalCold(ctx, g, sys, opts, "verification-failed", prior.AnchorQuality)
	}
	return res, nil
}

// incrementalCold is Incremental's escape hatch: a from-scratch solve
// with the fallback reason recorded in the provenance. anchorFloor is
// the chain's quality record so far (zero when
// there is no usable chain history); the fresh solve's own ratio only
// replaces it if it is better, so one unlucky cold cannot loosen the
// drift detector's reference.
func incrementalCold(ctx context.Context, g *graph.Graph, sys sim.System, opts Options, reason string, anchorFloor float64) (*Result, error) {
	obs.From(ctx).Add("placement.incremental.cold", 1)
	res, err := PlaceMultiGPU(ctx, g, sys, opts)
	if err != nil {
		return nil, fmt.Errorf("pesto incremental: cold fallback (%s): %w", reason, err)
	}
	anchor := float64(res.SimulatedMakespan) / float64(qualityLowerBound(g, sys))
	if anchorFloor > 0 && anchorFloor < anchor {
		anchor = anchorFloor
	}
	res.Provenance.Incremental = &IncrementalInfo{
		TotalGroups:    res.CoarseSize,
		AnchorQuality:  anchor,
		ColdFallback:   true,
		FallbackReason: reason,
	}
	return res, nil
}

// incrDirtyThreshold is the dirty-group fraction above which
// Incremental abandons the warm re-place and falls back to a cold
// solve: past it, re-solving the dirty region costs about as much as
// solving fresh and the reuse no longer pays.
const incrDirtyThreshold = 0.5

// incrQualityMargin is how far past the anchor's quality ratio a warm
// plan may drift before the step re-solves cold. The sweep's oracle
// allows 5% over a fresh cold solve; the margin sits well under it
// because the lower bound's tightness itself moves between the anchor
// graph and the edited one — an edit can make the graph easier in a
// way the bound does not see, and the headroom absorbs that.
const incrQualityMargin = 1.02

// qualityLowerBound is the placement-independent makespan floor the
// drift detector normalizes against: no schedule beats a perfect split
// of the GPU compute across devices, nor the graph's cost-weighted
// critical path.
func qualityLowerBound(g *graph.Graph, sys sim.System) time.Duration {
	var total time.Duration
	for _, nd := range g.Nodes() {
		if nd.Kind == graph.KindGPU {
			total += nd.Cost
		}
	}
	lb := total / time.Duration(max(len(sys.GPUs()), 1))
	if cp, _, err := g.CriticalPath(); err == nil && cp > lb {
		lb = cp
	}
	if lb <= 0 {
		lb = time.Nanosecond
	}
	return lb
}

// normalizeNodeMap resolves a caller-supplied node map to one entry
// per node of the edited graph, each either a valid prior ID or -1.
// A nil map means positional identity, matching incr.Compare.
func normalizeNodeMap(prior, g *graph.Graph, nodeMap []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	np := prior.NumNodes()
	m := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		switch {
		case nodeMap == nil:
			if i < np {
				m[i] = graph.NodeID(i)
			} else {
				m[i] = -1
			}
		case i < len(nodeMap) && nodeMap[i] >= 0 && int(nodeMap[i]) < np:
			m[i] = nodeMap[i]
		default:
			m[i] = -1
		}
	}
	return m
}

// inheritDevices builds the warm starting vector: every mapped GPU
// operation keeps its prior device; new operations adopt the device
// of their first already-assigned predecessor (walking in topological
// order, so chains of new operations inherit coherently) and default
// to the first GPU otherwise. Colocation groups are then made
// consistent with a deterministic first-member-wins pass. Devices no
// longer in the system (or non-GPU assignments of GPU ops) are
// treated as unmapped.
func inheritDevices(g *graph.Graph, sys sim.System, prior PriorPlacement, m []graph.NodeID) []sim.DeviceID {
	gpus := sys.GPUs()
	isGPU := make(map[sim.DeviceID]bool, len(gpus))
	for _, d := range gpus {
		isGPU[d] = true
	}
	n := g.NumNodes()
	dev := make([]sim.DeviceID, n)
	assigned := make([]bool, n)
	nodes := g.Nodes()
	order, err := g.TopoSort()
	if err != nil {
		order = make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
	}
	for _, id := range order {
		if nodes[id].Kind != graph.KindGPU {
			dev[id] = sys.CPUID()
			assigned[id] = true
			continue
		}
		if mo := m[id]; mo >= 0 && int(mo) < len(prior.Plan.Device) && isGPU[prior.Plan.Device[mo]] {
			dev[id] = prior.Plan.Device[mo]
			assigned[id] = true
			continue
		}
		dev[id] = gpus[0]
		for _, e := range g.Pred(id) {
			if assigned[e.From] && isGPU[dev[e.From]] {
				dev[id] = dev[e.From]
				break
			}
		}
		assigned[id] = true
	}
	// Colocation consistency: the group's first member (by node ID)
	// decides for everyone.
	colocDev := make(map[string]sim.DeviceID)
	for i := 0; i < n; i++ {
		nd := nodes[i]
		if nd.Kind != graph.KindGPU || nd.Coloc == "" {
			continue
		}
		if d, ok := colocDev[nd.Coloc]; ok {
			dev[i] = d
		} else {
			colocDev[nd.Coloc] = dev[i]
		}
	}
	return dev
}
