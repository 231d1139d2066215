package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/incr"
	"pesto/internal/models"
	"pesto/internal/obs"
	"pesto/internal/placement"
	"pesto/internal/sim"
)

// gpuMem is the per-GPU memory of the two-GPU system every library
// workload plans for (the paper's testbed).
const gpuMem = int64(16) << 30

// neverBinds is the ILPTimeLimit of every library op: long enough that
// a wall-clock knob never ends a search, so timings measure work.
const neverBinds = 120 * time.Second

// workloads lists the four gated workloads. The graph corpus is pinned
// (the roadmap's "one graph corpus"): placement.Options.Seed is not read
// by the engine, and a seed-drawn corpus moves op_geo_ms by 10-15 % from
// seed to seed (B&B trees and edit mixes differ), which would drown the
// bounds. The seed decides the order classes are visited in and the
// request sequence of serve_zipf.
var workloads = []workload{
	// Exact rung under a node cap: model build, B&B and LP are >95 % of
	// the time and nothing else is.
	{name: "exact_tree", build: buildExactTree},
	// Refine rung on paper-scale zoo graphs: coarsen, seeds, refine and
	// sim scoring; no LP is solved.
	{name: "ladder_zoo", build: buildLadderZoo},
	// Incremental re-placement over an edit trace: the placement layer
	// used for reuse instead of search.
	{name: "edit_trace", build: buildEditTrace},
	// Router and two replicas over loopback HTTP under a Zipf mix larger
	// than the caches: the service/fleet path, ~1 ms of solver per miss.
	{name: "serve_zipf", build: buildServeZipf},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// placeOp is one class of a library workload that calls
// placement.Place: one graph under one set of options.
type placeOp struct {
	class
	g    *graph.Graph
	opts placement.Options
	ref  time.Duration
	lb   time.Duration
}

// placeInstance runs a fixed list of placeOps, one op per class per
// round, in a seed-shuffled order.
type placeInstance struct {
	sys sim.System
	ops []placeOp
}

func newPlaceInstance(ops []placeOp, workloadName string) (*placeInstance, error) {
	inst := &placeInstance{sys: sim.NewSystem(2, gpuMem), ops: ops}
	pins := loadPins(workloadName)
	for i := range inst.ops {
		op := &inst.ops[i]
		ref, lb, err := reference(op.g, inst.sys)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.name, err)
		}
		op.ref, op.lb = pins.ref(op.name, ref), lb
	}
	return inst, nil
}

func (p *placeInstance) classes() []class {
	out := make([]class, len(p.ops))
	for i, op := range p.ops {
		out[i] = op.class
	}
	return out
}

func (p *placeInstance) round(ctx context.Context, order *rand.Rand, m *meter) []sample {
	samples := make([]sample, 0, len(p.ops))
	for _, i := range order.Perm(len(p.ops)) {
		var s sample
		s.speed = m.block(func() { s = p.place(ctx, i) })
		samples = append(samples, s)
	}
	return samples
}

// place is one op: one placement.Place call.
func (p *placeInstance) place(ctx context.Context, i int) sample {
	op := p.ops[i]
	ctx, span := obs.Start(ctx, "bench.place", obs.String("class", op.name))
	start := time.Now()
	res, err := placement.Place(ctx, op.g, p.sys, op.opts)
	dur := time.Since(start)
	span.End()
	if err != nil {
		return sample{class: i, err: err}
	}
	return sample{
		class: i, dur: dur, meta: res,
		out: &output{g: op.g, sys: p.sys, plan: res.Plan, ref: op.ref, lb: op.lb},
		// Stopped short of the cap without a proof: only the time limit
		// can have ended the search.
		timeBound: op.opts.DisableFallback && res.ILPStatus != ilp.OptimalStatus && res.Nodes < op.opts.ILPMaxNodes,
	}
}

// layerMetrics reports what placement.Result says about the exact
// rung's model and tree; the refine rung leaves these zero.
func (p *placeInstance) layerMetrics(traced []sample) map[string]float64 {
	var rows, vars, groups, proved, gap, solved float64
	for _, s := range traced {
		res, ok := s.meta.(*placement.Result)
		if !ok || res.LPRows == 0 {
			continue
		}
		solved++
		rows += float64(res.LPRows)
		vars += float64(res.LPVars)
		groups += float64(res.LPGroups)
		gap += res.Gap
		if res.ILPStatus == ilp.OptimalStatus {
			proved++
		}
	}
	if solved == 0 {
		return nil
	}
	return map[string]float64{
		"placement.lp_rows":     rows / solved,
		"placement.lp_vars":     vars / solved,
		"placement.lp_binaries": groups / solved,
		"ilp.proved_share":      proved / solved,
		"ilp.gap_mean":          gap / solved,
	}
}

func (p *placeInstance) references() map[string]int64 {
	out := make(map[string]int64, len(p.ops))
	for _, op := range p.ops {
		out[op.name] = int64(op.ref)
	}
	return out
}

func (p *placeInstance) close() {}

type exactGraph struct {
	family  gen.Family
	nodes   int
	cap     int
	limitMs float64
}

// exactCorpus is the exact_tree corpus: small generated graphs across
// families, some of which prove optimal under the cap (a tighter
// formulation shows as fewer nodes) and some of which hit it (a faster
// node shows as less time), plus the repository's canonical graph.
// limitMs is about 8x the class median measured on the 2-core reference
// VM: 3x was crossed by unchanged code whenever the VM's neighbours were
// busy (every timing rose 2-3x for minutes), and the limit is there to
// catch a stall or a binding time limit, not a slow machine.
var exactCorpus = []exactGraph{
	{gen.Diamond, 8, 100, 80},     // proves optimal, 23 nodes
	{gen.Layered, 8, 100, 1000},   // proves optimal, 47 nodes
	{gen.ColocHeavy, 8, 100, 280}, // hits the cap
	{gen.Random, 8, 100, 500},     // proves optimal, 23 nodes
	{gen.Random, 12, 100, 1800},   // proves optimal, 31 nodes
	{gen.Diamond, 12, 100, 1000},  // hits the cap
	{gen.Layered, 12, 100, 2600},  // hits the cap
	{gen.Layered, 96, 8, 11000},   // canonical graph, 1392x496 LP, hits the cap
}

// corpusSeed generates every pinned graph; it is the seed the
// repository's own benchmarks and sweeps use.
const corpusSeed = 7

func buildExactTree(seed int64, sc scale) (instance, error) {
	corpus := exactCorpus
	if sc.short {
		corpus = []exactGraph{corpus[0], corpus[2]} // one proves optimal, one hits the cap
	}
	ops := make([]placeOp, 0, len(corpus))
	for _, c := range corpus {
		g, err := gen.Generate(gen.Config{Family: c.family, Seed: corpusSeed, Nodes: c.nodes})
		if err != nil {
			return nil, err
		}
		ops = append(ops, placeOp{
			class: class{name: fmt.Sprintf("%v-%d", c.family, c.nodes), limit: time.Duration(c.limitMs * 1e6)},
			g:     g,
			opts: placement.Options{
				DisableFallback: true,
				Verify:          true,
				ILPMaxNodes:     c.cap,
				ILPTimeLimit:    neverBinds,
				Seed:            seed,
			},
		})
	}
	return newPlaceInstance(ops, "exact_tree")
}

// zooCorpus is the ladder_zoo corpus: paper-scale model-zoo graphs
// (1.2k-3.3k ops) that place in under a second at the refine rung.
var zooCorpus = []struct {
	model   string
	limitMs float64
}{
	{"RNNLM-2-2048", 3200},
	{"NMT-2-1024", 4000},
	{"Transformer-10-8-1024", 1400},
	{"Transformer-6-16-2048", 1200},
	{"NASNet-6-148", 3600},
}

func buildLadderZoo(seed int64, sc scale) (instance, error) {
	corpus := zooCorpus
	if sc.short {
		corpus = corpus[2:3]
	}
	ops := make([]placeOp, 0, len(corpus))
	for _, c := range corpus {
		v, err := models.FindVariant(c.model)
		if err != nil {
			return nil, err
		}
		g, err := v.Build()
		if err != nil {
			return nil, err
		}
		ops = append(ops, placeOp{
			class: class{name: c.model, limit: time.Duration(c.limitMs * 1e6)},
			g:     g,
			opts: placement.Options{
				StartStage:   placement.StageRefine,
				Verify:       true,
				ILPTimeLimit: neverBinds,
				Seed:         seed,
			},
		})
	}
	return newPlaceInstance(ops, "ladder_zoo")
}

// Edit-trace calibration: the trace is generated from the seed the
// repository's incremental benchmark uses, over the canonical graph.
const (
	editTraceSeed  = 17
	editTraceSteps = 160
	// editBlock is the steps between two speed measurements: ~0.15 s.
	editBlock = 16
	// A class here is many different steps, so its limit is set from its
	// tail (p99 ~9 ms warm, ~90 ms cold), not its median (1.1 / 28 ms).
	editWarmLimit = 50 * time.Millisecond
	editColdLimit = 400 * time.Millisecond
)

const (
	editWarm = iota
	editCold
)

// editInstance replays one edit trace from the base graph each round
// through incr.Apply and placement.Incremental, threading the prior
// placement the way TestSweepEditTrace does.
type editInstance struct {
	sys   sim.System
	opts  placement.Options
	base  *graph.Graph
	prior sim.Plan // cold plan of the base, solved once in set-up
	edits []incr.Edit
	refs  []time.Duration // per step
	lbs   []time.Duration
}

func buildEditTrace(seed int64, sc scale) (instance, error) {
	steps := editTraceSteps
	if sc.short {
		steps = 24
	}
	base, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: corpusSeed, Nodes: 96})
	if err != nil {
		return nil, err
	}
	edits, err := gen.EditTrace(base, gen.EditTraceConfig{Seed: editTraceSeed, Steps: steps})
	if err != nil {
		return nil, err
	}
	inst := &editInstance{
		sys: sim.NewSystem(2, gpuMem),
		opts: placement.Options{
			StartStage:   placement.StageRefine,
			Verify:       true,
			ILPTimeLimit: neverBinds,
			Seed:         seed,
		},
		base:  base,
		edits: edits,
		refs:  make([]time.Duration, steps),
		lbs:   make([]time.Duration, steps),
	}
	pins := loadPins("edit_trace")
	cur := base
	for i, e := range edits {
		next, _, err := incr.Apply(cur, e)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		ref, lb, err := reference(next, inst.sys)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		inst.refs[i], inst.lbs[i] = pins.ref(stepKey(i), ref), lb
		cur = next
	}
	cold, err := placement.PlaceMultiGPU(context.Background(), base, inst.sys, inst.opts)
	if err != nil {
		return nil, fmt.Errorf("base cold solve: %w", err)
	}
	inst.prior = cold.Plan
	return inst, nil
}

func (e *editInstance) classes() []class {
	return []class{
		editWarm: {name: "warm-step", limit: editWarmLimit},
		editCold: {name: "cold-refresh", limit: editColdLimit},
	}
}

// editMeta is what one step reports for the per-layer figures.
type editMeta struct {
	dirty, total int
}

func (e *editInstance) round(ctx context.Context, _ *rand.Rand, m *meter) []sample {
	samples := make([]sample, 0, len(e.edits))
	prior := placement.PriorPlacement{Graph: e.base, Plan: e.prior}
	cur := e.base
	var err error
	for lo := 0; lo < len(e.edits) && err == nil; lo += editBlock {
		speed := m.block(func() {
			for i := lo; i < min(lo+editBlock, len(e.edits)) && err == nil; i++ {
				var s sample
				if s, cur, prior, err = e.step(ctx, i, cur, prior); err == nil {
					samples = append(samples, s)
				}
			}
		})
		for i := lo; i < len(samples); i++ {
			samples[i].speed = speed
		}
	}
	// After a failed step the rest of the trace has no prior to thread:
	// every step not reached is an attempted op that failed.
	for len(samples) < len(e.edits) {
		samples = append(samples, sample{class: editWarm, speed: 1, err: err})
	}
	return samples
}

// step is one op: apply edit i to cur and re-place the result from the
// prior placement. It returns the sample and the state the next step
// threads.
func (e *editInstance) step(ctx context.Context, i int, cur *graph.Graph, prior placement.PriorPlacement) (sample, *graph.Graph, placement.PriorPlacement, error) {
	ctx, span := obs.Start(ctx, "bench.edit_step", obs.Int("step", int64(i)))
	defer span.End()
	start := time.Now()
	_, applySpan := obs.Start(ctx, "bench.incr.apply")
	next, nodeMap, err := incr.Apply(cur, e.edits[i])
	applySpan.End()
	if err != nil {
		return sample{}, nil, prior, fmt.Errorf("step %d: %w", i, err)
	}
	prior.NodeMap = nodeMap
	res, err := placement.Incremental(ctx, next, e.sys, prior, e.opts)
	if err != nil {
		return sample{}, nil, prior, fmt.Errorf("step %d: %w", i, err)
	}
	info := res.Provenance.Incremental
	s := sample{
		class: editWarm,
		dur:   time.Since(start),
		out:   &output{g: next, sys: e.sys, plan: res.Plan, ref: e.refs[i], lb: e.lbs[i]},
		meta:  editMeta{dirty: info.DirtyGroups, total: info.TotalGroups},
	}
	if info.ColdFallback {
		s.class = editCold
	}
	return s, next, placement.PriorPlacement{Graph: next, Plan: res.Plan,
		ChainDepth: info.ChainDepth, AnchorQuality: info.AnchorQuality}, nil
}

func (e *editInstance) layerMetrics(traced []sample) map[string]float64 {
	var warm, dirty, total float64
	for _, s := range traced {
		if s.class != editWarm || s.err != nil {
			continue
		}
		warm++
		if m, ok := s.meta.(editMeta); ok {
			dirty += float64(m.dirty)
			total += float64(m.total)
		}
	}
	out := map[string]float64{"placement.warm_share": warm / float64(len(traced))}
	if total > 0 {
		out["incr.dirty_group_share"] = dirty / total
	}
	return out
}

func (e *editInstance) references() map[string]int64 {
	out := make(map[string]int64, len(e.refs))
	for i, r := range e.refs {
		out[stepKey(i)] = int64(r)
	}
	return out
}

func (e *editInstance) close() {}

func stepKey(i int) string { return fmt.Sprintf("step-%03d", i) }
