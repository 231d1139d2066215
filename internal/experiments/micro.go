package experiments

import (
	"context"
	"fmt"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/comm"
	"pesto/internal/models"
	"pesto/internal/profile"
	"pesto/internal/sim"
)

// Figure2Result compares the three schedules of the paper's Figure 2 on
// the toy DAG: naive scheduling (critical-path-first, compute-
// oblivious), naive placement, and Pesto's jointly optimized plan.
type Figure2Result struct {
	NaiveScheduling time.Duration
	NaivePlacement  time.Duration
	Pesto           time.Duration
}

// Improvement is the reduction of Pesto over the naive schedule —
// the paper quotes 22–26% for this example.
func (r Figure2Result) Improvement() float64 {
	if r.NaiveScheduling <= 0 {
		return 0
	}
	return 1 - float64(r.Pesto)/float64(r.NaiveScheduling)
}

func (r Figure2Result) String() string {
	return table("Figure 2: toy example (makespans)", []string{
		fmt.Sprintf("naive scheduling (Fig 2b)   %v", r.NaiveScheduling),
		fmt.Sprintf("naive placement  (Fig 2c)   %v", r.NaivePlacement),
		fmt.Sprintf("optimal / Pesto  (Fig 2d)   %v", r.Pesto),
		fmt.Sprintf("improvement over naive      %.1f%%", 100*r.Improvement()),
	})
}

// Figure2 regenerates the toy example.
func Figure2(ctx context.Context, cfg Config) (Figure2Result, error) {
	cfg = cfg.withDefaults()
	g, err := models.ToyFigure2()
	if err != nil {
		return Figure2Result{}, err
	}
	sys := *cfg.Sys
	gpus := sys.GPUs()

	// Figure 2(b): a sensible placement (one light chain plus one heavy
	// stage per GPU) but compute-oblivious longest-path-first
	// scheduling, which runs the hop-deep light chains before the heavy
	// F/G pipeline.
	fig2b := make([]sim.DeviceID, g.NumNodes())
	for _, nd := range g.Nodes() {
		switch {
		case nd.Name == "A" || nd.Name == "F" || nd.Name[0] == 's':
			fig2b[nd.ID] = gpus[0]
		default: // d-chain, G, H
			fig2b[nd.ID] = gpus[1]
		}
	}
	cp, err := baselines.CriticalPathPlan(g, sim.Plan{Device: fig2b})
	if err != nil {
		return Figure2Result{}, err
	}
	rb, err := sim.Run(g, sys, cp)
	if err != nil {
		return Figure2Result{}, err
	}

	// Figure 2(c): naive placement — alternating ops across GPUs, which
	// cuts every chain edge and pays communication everywhere.
	naive := make([]sim.DeviceID, g.NumNodes())
	for i := range naive {
		naive[i] = gpus[i%2]
	}
	rc, err := sim.Run(g, sys, sim.Plan{Device: naive, Policy: sim.PolicyFIFO})
	if err != nil {
		return Figure2Result{}, err
	}

	_, pestoRes := pesto(ctx, cfg, g)
	if pestoRes.Err != nil {
		return Figure2Result{}, pestoRes.Err
	}
	return Figure2Result{
		NaiveScheduling: rb.Makespan,
		NaivePlacement:  rc.Makespan,
		Pesto:           pestoRes.Makespan,
	}, nil
}

// Figure4aRow summarizes the normalized-stddev CDF of one model.
type Figure4aRow struct {
	Model                string
	Ops                  int
	P50, P90, P99        float64
	IterationsPerProfile int
}

// Figure4aResult is the compute-time variability study.
type Figure4aResult struct {
	Rows []Figure4aRow
}

func (r Figure4aResult) String() string {
	rows := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%-24s ops=%-6d p50=%.3f p90=%.3f p99=%.3f",
			row.Model, row.Ops, row.P50, row.P90, row.P99))
	}
	return table("Figure 4a: normalized stddev of per-op compute times (CDF quantiles)", rows)
}

// Figure4a profiles every variant and reports quantiles of the
// normalized standard deviation — the paper's CDF shows essentially all
// mass below ~0.2.
func Figure4a(cfg Config) (Figure4aResult, error) {
	cfg = cfg.withDefaults()
	var out Figure4aResult
	for _, v := range cfg.variants() {
		g, err := v.Build()
		if err != nil {
			return out, fmt.Errorf("%s: %w", v.Name, err)
		}
		prof, err := profile.Compute(g, profile.Options{Iterations: cfg.profileIters(), Seed: cfg.Seed})
		if err != nil {
			return out, fmt.Errorf("%s: %w", v.Name, err)
		}
		cdf := prof.StddevCDF(10 * time.Microsecond) // ignore very small ops, as the paper does
		out.Rows = append(out.Rows, Figure4aRow{
			Model: v.Name, Ops: len(cdf),
			P50: profile.Quantile(cdf, 0.5), P90: profile.Quantile(cdf, 0.9), P99: profile.Quantile(cdf, 0.99),
			IterationsPerProfile: cfg.profileIters(),
		})
	}
	return out, nil
}

// Figure4bRow is one fitted link model.
type Figure4bRow struct {
	Link  comm.LinkType
	Beta0 time.Duration
	Beta1 float64 // ns per byte
	R2    float64
}

// Figure4bResult is the communication-model fit study.
type Figure4bResult struct {
	Rows []Figure4bRow
}

func (r Figure4bResult) String() string {
	rows := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%-8v beta0=%-10v beta1=%.4f ns/B  R²=%.3f",
			row.Link, row.Beta0, row.Beta1, row.R2))
	}
	return table("Figure 4b: linear communication-time fits (paper: R² 0.92–0.99)", rows)
}

// Figure4b profiles the three link types and fits the linear model.
func Figure4b(cfg Config) (Figure4bResult, error) {
	cfg = cfg.withDefaults()
	var out Figure4bResult
	for _, lt := range []comm.LinkType{comm.CPUToGPU, comm.GPUToCPU, comm.GPUToGPU} {
		prof, err := profile.Communication(*cfg.Sys, lt, cfg.Seed)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, Figure4bRow{
			Link: lt, Beta0: prof.Model.Beta0, Beta1: prof.Model.Beta1, R2: prof.Model.R2,
		})
	}
	return out, nil
}

// Table1Row is one model's op-duration histogram.
type Table1Row struct {
	Model                string
	Small, Medium, Large int // <10µs, 10–100µs, >100µs
}

// Table1Result is the op-size distribution study.
type Table1Result struct {
	Rows []Table1Row
}

func (r Table1Result) String() string {
	rows := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%-24s <10µs=%-6d 10–100µs=%-6d >100µs=%-6d",
			row.Model, row.Small, row.Medium, row.Large))
	}
	return table("Table 1: op execution-time buckets", rows)
}

// Table1 buckets per-op compute times for every variant.
func Table1(cfg Config) (Table1Result, error) {
	cfg = cfg.withDefaults()
	var out Table1Result
	for _, v := range cfg.variants() {
		g, err := v.Build()
		if err != nil {
			return out, fmt.Errorf("%s: %w", v.Name, err)
		}
		row := Table1Row{Model: v.Name}
		for _, nd := range g.Nodes() {
			switch {
			case nd.Cost < 10*time.Microsecond:
				row.Small++
			case nd.Cost <= 100*time.Microsecond:
				row.Medium++
			default:
				row.Large++
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
