// Package experiments regenerates every table and figure of the Pesto
// paper's evaluation (§5) on the simulated substrate: Figure 2 (toy
// example), Figure 4 (profiling), Table 1 (op-size distribution),
// Figure 5 (congestion-constraint ablation), Figure 7 (per-step
// training time across eleven variants), Table 2 (placement time),
// Table 3 (end-to-end training effort), Figure 8 (hardware sweeps), the
// §5.3 coarsening-sensitivity study, and the §5.4 simulator validation.
//
// Each experiment returns a structured result whose String method
// prints rows mirroring the paper's presentation. EXPERIMENTS.md
// records paper-reported vs measured values.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/engine"
	"pesto/internal/graph"
	"pesto/internal/models"
	"pesto/internal/placement"
	"pesto/internal/sim"
)

// Config shapes an experiment run.
type Config struct {
	// Sys is the machine model; zero value means the paper's testbed
	// (2× 16 GB GPUs, NVLink + PCIe).
	Sys *sim.System
	// Small switches the workload to the scaled-down variants so the
	// full suite runs in seconds (used by tests); the benchmarks run
	// with Small=false.
	Small bool
	// ILPTimeLimit bounds each Pesto ILP solve; zero means 5s (Small)
	// or 20s.
	ILPTimeLimit time.Duration
	// Seed drives all stochastic components.
	Seed int64
	// Parallel is the worker count handed to the placement engine and
	// used to fan experiment rows out; zero means GOMAXPROCS. The fan
	// out merges in submission order, so it never reorders results —
	// but cells whose ILPTimeLimit binds truncate at a load-dependent
	// point, and concurrent cells contending for cores shift it. Use
	// Parallel=1 (or node budgets) for bit-reproducible tables.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Sys == nil {
		s := sim.NewSystem(2, 16<<30)
		c.Sys = &s
	}
	if c.ILPTimeLimit <= 0 {
		if c.Small {
			c.ILPTimeLimit = 5 * time.Second
		} else {
			c.ILPTimeLimit = 20 * time.Second
		}
	}
	return c
}

// profileIters is the profiling iteration count: the paper's 100, or 20
// for the small variants.
func (c Config) profileIters() int {
	if c.Small {
		return 20
	}
	return 100
}

// variants returns the workload set for the config.
func (c Config) variants() []models.Variant {
	if c.Small {
		return models.SmallVariants()
	}
	return models.PaperVariants()
}

func (c Config) placeOpts() placement.Options {
	return placement.Options{
		ILPTimeLimit:    c.ILPTimeLimit,
		ScheduleFromILP: true,
		Seed:            c.Seed,
		Parallel:        c.Parallel,
	}
}

// pool is the worker pool experiments fan independent cells through.
func (c Config) pool() *engine.Pool { return engine.New(c.Parallel) }

// expertMode maps a model family to its manual strategy.
func expertMode(v models.Variant) baselines.ExpertMode {
	if v.Branchy {
		return baselines.ExpertBranches
	}
	return baselines.ExpertLayered
}

// StrategyResult is one (strategy, variant) measurement.
type StrategyResult struct {
	Strategy string
	Makespan time.Duration
	OOM      bool
	Err      error
}

func (r StrategyResult) String() string {
	switch {
	case r.OOM:
		return fmt.Sprintf("%-12s OOM", r.Strategy)
	case r.Err != nil:
		return fmt.Sprintf("%-12s error: %v", r.Strategy, r.Err)
	default:
		return fmt.Sprintf("%-12s %v", r.Strategy, r.Makespan)
	}
}

// runStrategy simulates plan and classifies OOM separately.
func runStrategy(name string, g *graph.Graph, sys sim.System, plan sim.Plan, err error) StrategyResult {
	if err != nil {
		if errors.Is(err, sim.ErrOOM) {
			return StrategyResult{Strategy: name, OOM: true}
		}
		return StrategyResult{Strategy: name, Err: err}
	}
	res, err := sim.Run(g, sys, plan)
	if err != nil {
		if errors.Is(err, sim.ErrOOM) {
			return StrategyResult{Strategy: name, OOM: true}
		}
		return StrategyResult{Strategy: name, Err: err}
	}
	return StrategyResult{Strategy: name, Makespan: res.Makespan}
}

// pesto runs the full Pesto pipeline and returns the plan, the
// placement time and the per-step simulated time.
func pesto(ctx context.Context, cfg Config, g *graph.Graph) (*placement.Result, StrategyResult) {
	res, err := placement.Place(ctx, g, *cfg.Sys, cfg.placeOpts())
	if err != nil {
		return nil, StrategyResult{Strategy: "Pesto", Err: err}
	}
	return res, runStrategy("Pesto", g, *cfg.Sys, res.Plan, nil)
}

// table renders rows with a header, aligned on tabs for readability.
func table(header string, rows []string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", len(header)))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}
