package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/graph"
	"pesto/internal/service"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

// exactBoundNodes is the graph size up to which the lower bound is the
// LP relaxation of verify.LowerBound: every serve_zipf graph and the
// small exact_tree ones. Above it the analytic bound stands in: the
// relaxation costs 8 ms at 100 ops (1.3 s over an edit trace, per
// build), 1-5 s on a zoo model, and on three of the six zoo models the
// solver gives up ("relaxation: infeasible").
const exactBoundNodes = 80

var (
	errBelowBound = errors.New("makespan below the lower bound")
	errMismatch   = errors.New("response bytes differ from the first answer for this key")
)

// output is what one op returned, with what the oracle needs to judge
// it. Serving ops that returned identical bytes share one output, so a
// cached plan is verified once however often it was served.
type output struct {
	g    *graph.Graph
	sys  sim.System
	plan sim.Plan
	// body, for a served op, is the response the plan is decoded from on
	// first verification.
	body []byte
	// ref is the reference makespan: the best baseline plan (BestBaechi
	// or HEFT) as re-simulated by verify.Check, or the value pinned in
	// testdata/reference.<seed>.json when the seed has one.
	ref time.Duration
	// lb is a makespan no valid plan can undercut.
	lb time.Duration

	judged   bool
	makespan time.Duration
	err      error
}

// oracleTimes accumulates, on traced runs, what the oracle's own calls
// into sim and verify cost per output.
type oracleTimes struct {
	sim, check time.Duration
	n          int
}

// verify re-simulates the plan through verify.Check and holds the
// makespan to the lower bound. The verdict is memoized.
func (o *output) verify(t *oracleTimes) (time.Duration, error) {
	if o.judged {
		return o.makespan, o.err
	}
	o.judged = true
	if o.body != nil {
		var resp service.PlaceResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			o.err = fmt.Errorf("decode response: %w", err)
			return 0, o.err
		}
		o.plan = resp.Plan
	}
	if t != nil {
		start := time.Now()
		_, _ = sim.Run(o.g, o.sys, o.plan) // timed only; Check below is the judge
		t.sim += time.Since(start)
	}
	start := time.Now()
	res, err := verify.Check(o.g, o.sys, o.plan)
	if t != nil {
		t.check += time.Since(start)
		t.n++
	}
	switch {
	case err != nil:
		o.err = fmt.Errorf("verify.Check: %w", err)
	case res.Makespan < o.lb:
		o.err = fmt.Errorf("%w: %v < %v", errBelowBound, res.Makespan, o.lb)
	default:
		o.makespan = res.Makespan
	}
	return o.makespan, o.err
}

// verdict is the oracle's summary over the samples of a run.
type verdict struct {
	failed, within int
	// quality is the geometric mean over succeeded ops of reference
	// makespan / served makespan; above 1 beats the reference.
	quality float64
	// over marks, per sample, an op that succeeded but missed its limit.
	over     []bool
	failures []string
}

// judge turns every sample into succeeded-within-limit, succeeded-over
// or failed. An op that errored, whose plan does not verify or whose
// makespan undercuts the lower bound is a failed op, never a timing
// sample: it mutates the sample's err so classStats skips it.
func judge(classes []class, samples []sample, t *oracleTimes) verdict {
	v := verdict{over: make([]bool, len(samples))}
	var logs float64
	ok := 0
	for i := range samples {
		s := &samples[i]
		var makespan time.Duration
		if s.err == nil {
			makespan, s.err = s.out.verify(t)
		}
		if s.err != nil {
			v.failed++
			if len(v.failures) < 8 {
				v.failures = append(v.failures, fmt.Sprintf("%s: %v", classes[s.class].name, s.err))
			}
			continue
		}
		logs += math.Log(float64(s.out.ref) / float64(makespan))
		ok++
		if s.timeBound || s.at() > classes[s.class].limit {
			v.over[i] = true
		} else {
			v.within++
		}
	}
	if ok > 0 {
		v.quality = math.Exp(logs / float64(ok))
	}
	return v
}

// reference computes the reference makespan and lower bound of one
// input. It runs in set-up, never inside a measured round.
func reference(g *graph.Graph, sys sim.System) (ref, lb time.Duration, err error) {
	plan, _, _, err := baselines.BestBaechi(g, sys)
	if err != nil {
		return 0, 0, fmt.Errorf("reference: best baechi: %w", err)
	}
	res, err := verify.Check(g, sys, plan)
	if err != nil {
		return 0, 0, fmt.Errorf("reference: best baechi plan: %w", err)
	}
	ref = res.Makespan
	if heft, err := baselines.HEFT(g, sys); err == nil {
		if res, err := verify.Check(g, sys, heft); err == nil && res.Makespan < ref {
			ref = res.Makespan
		}
	}
	lb, err = lowerBound(g, sys)
	return ref, lb, err
}

// lowerBound is verify.LowerBound where that is affordable, and
// otherwise the larger of the zero-communication critical path and the
// GPU work spread perfectly over the GPUs.
func lowerBound(g *graph.Graph, sys sim.System) (time.Duration, error) {
	if g.NumNodes() <= exactBoundNodes {
		lb, err := verify.LowerBound(g, sys)
		if err != nil {
			return 0, fmt.Errorf("reference: lower bound: %w", err)
		}
		return lb, nil
	}
	cp, _, err := g.CriticalPath()
	if err != nil {
		return 0, fmt.Errorf("reference: critical path: %w", err)
	}
	var gpuWork time.Duration
	for _, n := range g.Nodes() {
		if n.Kind == graph.KindGPU {
			gpuWork += n.Cost
		}
	}
	if spread := gpuWork / time.Duration(len(sys.GPUs())); spread > cp {
		return spread, nil
	}
	return cp, nil
}
