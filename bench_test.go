package pesto

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§5) at paper scale and prints the rows. One
// benchmark per table/figure, plus ablation benches for the design
// choices DESIGN.md calls out. Absolute numbers come from the simulated
// substrate and will not match the authors' testbed; the shapes (who
// wins, by roughly what factor, where crossovers fall) are the
// reproduction targets recorded in EXPERIMENTS.md.
//
// Run everything:
//
//	go test -bench=. -benchmem -timeout 2h
//
// Use -bench=BenchmarkFigure7 etc. to regenerate one artifact.

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"

	"pesto/internal/experiments"
	"pesto/internal/placement"
	"pesto/internal/sim"
)

// benchCfg is the paper-scale configuration shared by all benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		Small:        false,
		ILPTimeLimit: 10 * time.Second,
		Seed:         1,
	}
}

// printOnce writes an experiment's table to stdout on the first
// benchmark iteration only.
var printedOnce sync.Map

func printOnce(name string, s fmt.Stringer) {
	if _, loaded := printedOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%v\n", s)
	}
}

// BenchmarkFigure2Toy regenerates the Figure 2 illustrative example:
// naive scheduling vs naive placement vs the jointly optimized plan
// (paper: 22–26% improvement).
func BenchmarkFigure2Toy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure2", res)
		b.ReportMetric(100*res.Improvement(), "improvement_%")
	}
}

// BenchmarkFigure4aComputeCDF regenerates the compute-time variability
// CDF (paper: normalized stddev concentrated well below 0.2).
func BenchmarkFigure4aComputeCDF(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure4a", res)
		worst := 0.0
		for _, row := range res.Rows {
			if row.P99 > worst {
				worst = row.P99
			}
		}
		b.ReportMetric(worst, "worst_p99_stddev")
	}
}

// BenchmarkFigure4bCommFit regenerates the linear communication fits
// (paper: R² of 0.92–0.99).
func BenchmarkFigure4bCommFit(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure4b", res)
		minR2 := 1.0
		for _, row := range res.Rows {
			if row.R2 < minR2 {
				minR2 = row.R2
			}
		}
		b.ReportMetric(minR2, "min_r2")
	}
}

// BenchmarkTable1OpSizes regenerates the op execution-time buckets
// (paper: the <10µs bucket dominates every model).
func BenchmarkTable1OpSizes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table1", res)
	}
}

// BenchmarkFigure5Congestion regenerates the congestion-constraint
// ablation on RNNLM-2-2048 (paper: ~3× makespan inflation without the
// constraints; here the planner's fallback schedulers cushion the blow,
// so the signal is the queueing delay and a smaller inflation).
func BenchmarkFigure5Congestion(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure5", res)
		b.ReportMetric(res.Inflation(), "inflation_x")
	}
}

// BenchmarkFigure7TrainingTime regenerates the headline per-step
// training-time comparison across all eleven variants (paper: Pesto
// ~14% below the best alternative on average; Expert OOMs on
// NASNet-4-212 and NASNet-6-168).
func BenchmarkFigure7TrainingTime(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure7", res)
		b.ReportMetric(100*res.AverageReduction(), "avg_reduction_%")
	}
}

// BenchmarkTable2PlacementTime regenerates the placement-time
// comparison (paper: Pesto minutes vs learning-based hours-to-days).
func BenchmarkTable2PlacementTime(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table2", res)
	}
}

// BenchmarkTable3TrainingEffort regenerates the end-to-end training
// effort relative to Expert (paper: Pesto 0.7×–0.89×).
func BenchmarkTable3TrainingEffort(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("table3", res)
	}
}

// BenchmarkFigure8aComputeScaling regenerates the compute-speed sweep
// (paper: Pesto's improvement over Expert grows with compute speed).
func BenchmarkFigure8aComputeScaling(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8a(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure8a", res)
		if n := len(res.Points); n > 0 {
			b.ReportMetric(100*res.Points[n-1].Improvement, "improvement_at_8x_%")
		}
	}
}

// BenchmarkFigure8bInterconnect regenerates the interconnect-speed
// sweep on NMT-2-1024 (paper: Pesto adapts; Expert suffers on slow
// links).
func BenchmarkFigure8bInterconnect(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8b(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("figure8b", res)
		if len(res.Points) > 0 {
			b.ReportMetric(100*res.Points[0].Improvement, "improvement_at_0.1x_%")
		}
	}
}

// BenchmarkCoarseningSensitivity regenerates the §5.3 study: placement
// time vs training time across coarsening targets.
func BenchmarkCoarseningSensitivity(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CoarseningSensitivity(context.Background(), cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("coarsening", res)
	}
}

// BenchmarkSimulatorValidation regenerates the §5.4 validation:
// simulator vs runtime-executor per-step times (paper: 0.1–11.3%
// disagreement, ~5% average).
func BenchmarkSimulatorValidation(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.SimulatorValidation(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("validation", res)
		b.ReportMetric(100*res.AverageError(), "avg_error_%")
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationJointVsPlacementOnly compares Pesto's full joint
// placement+scheduling output against placement-only with TensorFlow-
// default ready-queue scheduling (§3.3's fallback).
func BenchmarkAblationJointVsPlacementOnly(b *testing.B) {
	g, err := BuildModel("RNNLM-2-2048")
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	for i := 0; i < b.N; i++ {
		joint, err := Place(context.Background(), g, sys, PlaceOptions{
			ILPTimeLimit: 8 * time.Second, ScheduleFromILP: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		placeOnly, err := Place(context.Background(), g, sys, PlaceOptions{
			ILPTimeLimit: 8 * time.Second, ScheduleFromILP: false, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		jr, err := Simulate(g, sys, joint.Plan)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := Simulate(g, sys, placeOnly.Plan)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation: joint schedule %v vs placement-only %v\n", jr.Makespan, pr.Makespan)
		}
		b.ReportMetric(float64(pr.Makespan)/float64(jr.Makespan), "placement_only_slowdown_x")
	}
}

// BenchmarkAblationMemoryConstraints compares placements with and
// without the memory constraint group (8) on the Expert-OOM NASNet
// variant.
func BenchmarkAblationMemoryConstraints(b *testing.B) {
	g, err := BuildModel("NASNet-4-212")
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	for i := 0; i < b.N; i++ {
		withMem, err := Place(context.Background(), g, sys, PlaceOptions{
			ILPTimeLimit: 8 * time.Second, ScheduleFromILP: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Simulate(g, sys, withMem.Plan); err != nil {
			b.Fatalf("memory-aware plan must fit: %v", err)
		}
		noMem, err := Place(context.Background(), g, sys, PlaceOptions{
			ILPTimeLimit: 8 * time.Second, ScheduleFromILP: true, Seed: 1, DisableMemory: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, simErr := Simulate(g, sys, noMem.Plan)
		if i == 0 {
			fmt.Printf("\nAblation: memory constraints on -> fits; off -> error=%v\n", simErr)
		}
	}
}

// BenchmarkAblationCoarseningPriority compares coarsening-edge
// priorities: by communication size (Pesto, §3.3) vs the plain
// placement quality they yield downstream. (Alternative systems merge
// by out-degree only, §5.3.)
func BenchmarkAblationCoarseningPriority(b *testing.B) {
	g, err := BuildModel("NMT-2-1024")
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	for i := 0; i < b.N; i++ {
		res, err := placement.Place(context.Background(), g, sys, placement.Options{
			ILPTimeLimit: 8 * time.Second, ScheduleFromILP: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		r, err := sim.Run(g, sys, res.Plan)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nAblation: comm-size-priority coarsening -> %d vertices, step %v\n",
				res.CoarseSize, r.Makespan)
		}
		b.ReportMetric(float64(res.CoarseSize), "coarse_vertices")
	}
}

// BenchmarkExtendedBaselines compares every implemented strategy
// (single-GPU, Expert, HEFT, Baechi-best, Pesto) across all variants —
// an extension beyond the paper's three-way Figure 7.
func BenchmarkExtendedBaselines(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtendedBaselines(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("extended", res)
	}
}

// placeCPUTime reads this process's cumulative CPU time (user+system).
// The overhead claim below is measured in CPU time, not wall time:
// these benches run on shared virtual machines where hypervisor steal
// and frequency drift move wall-clock ±10% between identical runs,
// an order of magnitude above the effect being measured. Rusage does
// not accrue while the process is descheduled, so an A/A comparison
// in CPU time is stable where wall time is not. (Linux/darwin only,
// like the rest of the toolchain this repo targets.)
func placeCPUTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkObsOverhead measures what the telemetry layer costs the
// placement pipeline: no recorder on the context (the production
// default for library callers; every obs call is a nil-check no-op),
// versus a recorder feeding an in-memory sink. The baseline is an A/A
// copy of the disabled variant, so any measured baseline/disabled gap
// bounds the noise floor of the claim itself. Each b.N round runs
// every variant once in rotated order and the overheads compare the
// per-variant *minimum* of per-op CPU time (see placeCPUTime):
// best-of-rounds is the standard de-noising estimator for a
// deterministic workload, since every source of interference (steal,
// migrations, cache pollution) only ever adds time — the median still
// carries half the noise distribution and has produced negative
// "overhead" on shared machines. It reports disabled_overhead_pct and
// enabled_overhead_pct; the disabled variant is the one DESIGN.md
// holds to ≤2% overhead.
// Use -benchtime 40x: the minimum converges much faster than the
// median, and at 40 rounds the A/A gap lands well under 1%.
func BenchmarkObsOverhead(b *testing.B) {
	g, err := BuildModel("NMT-2-1024")
	if err != nil {
		b.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	opts := PlaceOptions{
		CoarsenTarget: 24, ILPMaxNodes: 4,
		ILPTimeLimit: 120 * time.Second, ScheduleFromILP: true, Seed: 1,
	}
	variants := []func() context.Context{
		context.Background, // baseline
		context.Background, // disabled: the A/A pair, same bare context
		func() context.Context { // enabled
			return WithObsRecorder(context.Background(), NewObsRecorder(NewObsMemorySink()))
		},
	}
	// One untimed warm-up solve so lazy init and the page cache hit
	// the first timed round like every other round.
	if _, err := Place(context.Background(), g, sys, opts); err != nil {
		b.Fatal(err)
	}
	samples := make([][]time.Duration, len(variants))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range variants {
			k := (i + j) % len(variants)
			start := placeCPUTime(b)
			if _, err := Place(variants[k](), g, sys, opts); err != nil {
				b.Fatal(err)
			}
			samples[k] = append(samples[k], placeCPUTime(b)-start)
		}
	}
	b.StopTimer()
	best := func(ds []time.Duration) float64 {
		min := ds[0]
		for _, d := range ds[1:] {
			if d < min {
				min = d
			}
		}
		return float64(min)
	}
	base, dis, en := best(samples[0]), best(samples[1]), best(samples[2])
	b.ReportMetric(100*(dis-base)/base, "disabled_overhead_pct")
	b.ReportMetric(100*(en-base)/base, "enabled_overhead_pct")
}

// BenchmarkMultiGPUExtension evaluates the §3.2.2 multi-GPU extension
// on RNNLM-2-2048 for 2, 3 and 4 GPUs.
func BenchmarkMultiGPUExtension(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiGPU(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("multigpu", res)
		if n := len(res.Points); n > 0 {
			b.ReportMetric(res.Points[n-1].Speedup, "speedup_4gpu_vs_2gpu_x")
		}
	}
}
