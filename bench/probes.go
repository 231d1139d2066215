package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/coarsen"
	"pesto/internal/engine"
	"pesto/internal/fleet"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/incr"
	"pesto/internal/lp"
	"pesto/internal/models"
	"pesto/internal/pipeline"
	"pesto/internal/placement"
	"pesto/internal/service"
	"pesto/internal/sim"
	"pesto/internal/verify"
)

// probeReps is how often each stand-alone layer call is timed; the
// median is reported.
const probeReps = 15

// prober times single calls into a layer. After the first failure it
// skips the calls that follow, which may depend on what that one
// returned, and keeps the error.
type prober struct {
	out  map[string]float64
	reps int
	err  error
}

// time records, under name, the median wall time of reps calls of fn in
// the given unit, and returns it.
func (p *prober) time(name string, unit time.Duration, reps int, fn func() error) time.Duration {
	if p.err != nil {
		return 0
	}
	durs := make([]float64, reps)
	for i := range durs {
		start := time.Now()
		if err := fn(); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return 0
		}
		durs[i] = float64(time.Since(start))
	}
	d := time.Duration(median(durs))
	p.out[name] = float64(d) / float64(unit)
	return d
}

// layerProbes times single calls into each layer on pinned inputs: the
// canonical 96-op graph, where the call is per request, and one
// paper-scale zoo graph, where it is per model. They run once per traced
// process, so each layer has a number of its own next to the end-to-end
// figure it should move. Regimes outside the gated workloads (Replan,
// microbatched pipeline.Search) appear only here. Times are raw.
func layerProbes(short bool) (map[string]float64, error) {
	p := &prober{out: make(map[string]float64), reps: probeReps}
	zooName := "Transformer-10-8-1024"
	if short {
		p.reps, zooName = 3, "Transformer-small"
	}
	const us, msec = time.Microsecond, time.Millisecond
	ctx := context.Background()
	sys := sim.NewSystem(2, gpuMem)
	small, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: corpusSeed, Nodes: 96})
	if err != nil {
		return nil, err
	}
	v, err := models.FindVariant(zooName)
	if err != nil {
		return nil, err
	}
	zoo, err := v.Build()
	if err != nil {
		return nil, err
	}

	// Request path, layer by layer.
	body, err := placeRequestBody(small)
	if err != nil {
		return nil, err
	}
	p.time("graph.decode_us", us, p.reps, func() error {
		_, err := service.DecodePlaceRequest(bytes.NewReader(body), 32<<20, 50000)
		return err
	})
	p.time("graph.fingerprint_us", us, p.reps, func() error {
		_ = small.Fingerprint()
		return nil
	})
	p.serve(body)

	// Planner layers on a paper-scale graph.
	var cres *coarsen.Result
	p.time("coarsen.ms", msec, p.reps, func() (err error) {
		cres, err = coarsen.Coarsen(zoo, coarsen.Options{Target: 192})
		return err
	})
	p.time("coarsen.groupfp_us", us, p.reps, func() error {
		_ = cres.GroupFingerprints(zoo)
		return nil
	})
	p.time("baselines.best_baechi_ms", msec, p.reps, func() error {
		_, _, _, err := baselines.BestBaechi(zoo, sys)
		return err
	})
	p.time("baselines.heft_ms", msec, p.reps, func() error {
		_, err := baselines.HEFT(zoo, sys)
		return err
	})
	p.time("verify.lowerbound_ms", msec, p.reps, func() error {
		_, err := verify.LowerBound(small, sys)
		return err
	})
	p.time("pipeline.partition_dp_us", us, p.reps, func() error {
		_, err := pipeline.PartitionDP(small, sys, sys.GPUs(), 2)
		return err
	})

	// Edit path.
	edits, err := gen.EditTrace(small, gen.EditTraceConfig{Seed: editTraceSeed, Steps: 1})
	if err != nil {
		return nil, err
	}
	var edited *graph.Graph
	var nodeMap []graph.NodeID
	p.time("incr.apply_us", us, p.reps, func() (err error) {
		edited, nodeMap, err = incr.Apply(small, edits[0])
		return err
	})
	p.time("incr.compare_us", us, p.reps, func() error {
		_ = incr.Compare(small, edited, nodeMap)
		return nil
	})

	// Engine fan-out cost per task, over tasks that do nothing.
	const noopTasks = 4096
	pool := engine.New(0)
	p.time("engine.map_overhead_us", us, p.reps, func() error {
		_, err := engine.Map(ctx, pool, noopTasks, func(context.Context, int) (struct{}, error) {
			return struct{}{}, nil
		})
		return err
	})
	p.out["engine.map_overhead_us"] /= noopTasks

	// Solver core on one seeded problem.
	prob, binaries, err := seededMILP(corpusSeed)
	if err != nil {
		return nil, err
	}
	p.time("lp.solve_ms", msec, p.reps, func() error {
		_, err := lp.Solve(prob)
		return err
	})
	p.time("ilp.solve_ms", msec, p.reps, func() error {
		_, err := ilp.Solve(ctx, ilp.Problem{LP: prob, Binary: binaries}, ilp.Options{MaxNodes: 64, TimeLimit: neverBinds})
		return err
	})

	// Regimes deliberately outside the gated workloads.
	base, err := placement.Place(ctx, small, sys, placement.Options{StartStage: placement.StageFallback, Verify: true})
	if err != nil {
		return nil, err
	}
	few := max(p.reps/5, 1)
	p.time("placement.replan_ms", msec, few, func() error {
		_, err := placement.Replan(ctx, small, sys, base.Plan, sys.GPUs()[1], placement.Options{ILPTimeLimit: neverBinds})
		return err
	})
	p.time("pipeline.search_ms", msec, few, func() error {
		_, err := pipeline.Search(ctx, small, sys, pipeline.Options{Microbatches: 4})
		return err
	})
	return p.out, p.err
}

// seededMILP builds, through the public lp.NewProblem, a 0-1 knapsack
// cover: minimize cost subject to random covering rows. Every row has a
// feasible point (all ones), so it always solves.
func seededMILP(seed int64) (*lp.Problem, []int, error) {
	const vars, rows = 60, 40
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem(vars)
	binaries := make([]int, vars)
	for v := 0; v < vars; v++ {
		binaries[v] = v
		if err := p.SetBounds(v, 0, 1); err != nil {
			return nil, nil, err
		}
		if err := p.SetObjective(v, 1+9*rng.Float64()); err != nil {
			return nil, nil, err
		}
	}
	for r := 0; r < rows; r++ {
		c := lp.Constraint{Rel: lp.GE}
		var sum float64
		for v := 0; v < vars; v++ {
			if rng.Intn(4) == 0 {
				coef := 1 + 4*rng.Float64()
				c.Terms = append(c.Terms, lp.Term{Var: v, Coef: coef})
				sum += coef
			}
		}
		if len(c.Terms) == 0 {
			continue
		}
		c.RHS = sum / 3
		if err := p.AddConstraint(c); err != nil {
			return nil, nil, err
		}
	}
	return p, binaries, nil
}

// serve splits a served request into its hops: the handler alone (into
// a recorder, no socket), a replica over a loopback socket, and the same
// through the router.
func (p *prober) serve(body []byte) {
	const us, msec = time.Microsecond, time.Millisecond
	reps := p.reps * 8 // these are sub-millisecond calls
	post := func(h http.Handler, body []byte) func() error {
		return func() error {
			req, err := http.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body))
			if err != nil {
				return err
			}
			w := &nullResponse{header: http.Header{}}
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				return fmt.Errorf("handler status %d", w.status)
			}
			return nil
		}
	}
	rep := service.New(service.Config{})
	defer drain(rep)
	noCache := bytes.Replace(body, []byte(`"options":{`), []byte(`"options":{"noCache":true,`), 1)
	p.time("service.miss_handler_ms", msec, reps/4, post(rep, noCache))
	hit := post(rep, body)
	if p.err == nil {
		p.err = hit() // fill the cache
	}
	handler := p.time("service.hit_handler_us", us, reps, hit)

	repL, err := listen(rep)
	if err != nil {
		p.err = err
		return
	}
	defer repL.close()
	backendT, clientT := &http.Transport{}, &http.Transport{}
	defer backendT.CloseIdleConnections()
	defer clientT.CloseIdleConnections()
	router, err := fleet.New(fleet.Config{}, fleet.NewHTTPBackend("r0", repL.url, &http.Client{Transport: backendT}))
	if err != nil {
		p.err = err
		return
	}
	routerL, err := listen(router)
	if err != nil {
		p.err = err
		return
	}
	defer routerL.close()
	client := &http.Client{Transport: clientT}
	roundTrip := func(url string) func() error {
		return func() error {
			resp, err := client.Post(url+"/v1/place", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return err
		}
	}
	// Each hop is the difference to the one inside it.
	direct := p.time("service.socket_us", us, reps, roundTrip(repL.url))
	routed := p.time("fleet.hop_us", us, reps, roundTrip(routerL.url))
	if p.err == nil {
		p.out["service.socket_us"] = float64(direct-handler) / float64(us)
		p.out["fleet.hop_us"] = float64(routed-direct) / float64(us)
	}
}

// nullResponse is the cheapest http.ResponseWriter: the handler probes
// time the handler, not a recorder.
type nullResponse struct {
	header http.Header
	status int
}

func (n *nullResponse) Header() http.Header         { return n.header }
func (n *nullResponse) WriteHeader(status int)      { n.status = status }
func (n *nullResponse) Write(b []byte) (int, error) { return len(b), nil }

func drain(s *service.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Drain(ctx) // probes are done; nothing is in flight
}
