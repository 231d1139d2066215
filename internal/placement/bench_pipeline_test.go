package placement

import (
	"context"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

const benchPipelineGPUMem = int64(16) << 30

// benchPipelineWorkload is the pipeline benchmark's fixed input: the
// layered-96 (gen.Layered seed 7, 96 nodes) on a
// 2-GPU box — large enough that the exact ILP rung works for its
// answer, small enough that repeated DP solves stay in the
// milliseconds.
func benchPipelineWorkload(tb testing.TB) (*graph.Graph, sim.System) {
	tb.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 96})
	if err != nil {
		tb.Fatal(err)
	}
	return g, sim.NewSystem(2, benchPipelineGPUMem)
}

// timePipelineDP runs the StagePipelineDP rung once, cold, and returns
// its wall time.
func timePipelineDP(tb testing.TB, g *graph.Graph, sys sim.System) time.Duration {
	tb.Helper()
	opts := Options{StartStage: StagePipelineDP, Seed: 1, Verify: true}
	start := time.Now()
	res, err := PlaceMultiGPU(context.Background(), g, sys, opts)
	took := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Provenance.Stage != StagePipelineDP {
		tb.Fatalf("plan served by %v, want %v", res.Provenance.Stage, StagePipelineDP)
	}
	return took
}

// BenchmarkPipelineDPRung times the contiguous-split DP rung against
// the full exact-ILP rung on the same graph and reports both latencies,
// the speedup and the DP plan's makespan relative to the exact rung's as
// benchmark metrics. The ILP half is the expensive one, so it only runs
// when not in -short mode.
func BenchmarkPipelineDPRung(b *testing.B) {
	g, sys := benchPipelineWorkload(b)
	ctx := context.Background()

	var nsDP float64
	var dpMakespan time.Duration
	b.Run("dp", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += timePipelineDP(b, g, sys)
		}
		nsDP = float64(total) / float64(b.N)
		res, err := PlaceMultiGPU(ctx, g, sys, Options{StartStage: StagePipelineDP, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		dpMakespan = res.SimulatedMakespan
		b.ReportMetric(nsDP, "ns/dp_plan")
	})
	b.Run("ilp", func(b *testing.B) {
		if testing.Short() {
			b.Skip("exact ILP rung")
		}
		opts := Options{ILPTimeLimit: 20 * time.Second, Seed: 1, Verify: true}
		var total time.Duration
		var ilpMakespan time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			res, err := PlaceMultiGPU(ctx, g, sys, opts)
			total += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			if res.Provenance.Stage != StageILP {
				b.Fatalf("plan served by %v, want %v", res.Provenance.Stage, StageILP)
			}
			ilpMakespan = res.SimulatedMakespan
		}
		nsILP := float64(total) / float64(b.N)
		b.ReportMetric(nsILP, "ns/ilp_plan")
		if nsDP > 0 {
			b.ReportMetric(nsILP/nsDP, "speedup")
			b.ReportMetric(float64(dpMakespan)/float64(ilpMakespan), "quality_vs_exact")
		}
	})
}
