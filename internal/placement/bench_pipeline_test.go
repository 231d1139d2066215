package placement

import (
	"context"
	"encoding/json"
	"os"
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
// answer, small enough that the gate's repeated DP solves stay in the
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
// the full exact-ILP rung on the same graph and snapshots the
// comparison to BENCH_pipeline.json (repo root). The ILP half is the
// expensive one, so it only runs when not in -short mode; run without
// -short to regenerate the snapshot.
func BenchmarkPipelineDPRung(b *testing.B) {
	g, sys := benchPipelineWorkload(b)
	ctx := context.Background()

	var nsDP, nsILP int64
	var dpMakespan, ilpMakespan time.Duration
	b.Run("dp", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += timePipelineDP(b, g, sys)
		}
		nsDP = int64(total) / int64(b.N)
		res, err := PlaceMultiGPU(ctx, g, sys, Options{StartStage: StagePipelineDP, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		dpMakespan = res.SimulatedMakespan
	})
	b.Run("ilp", func(b *testing.B) {
		if testing.Short() {
			b.Skip("exact ILP rung; run without -short to regenerate the snapshot")
		}
		opts := Options{ILPTimeLimit: 20 * time.Second, Seed: 1, Verify: true}
		var total time.Duration
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
		nsILP = int64(total) / int64(b.N)
	})
	if nsDP == 0 || nsILP == 0 {
		return // short mode: no snapshot without the ILP half
	}
	snapshot := map[string]any{
		"graph":            "gen.Layered seed=7 nodes=96, 2 GPUs",
		"ns_per_dp_plan":   nsDP,
		"ns_per_ilp_plan":  nsILP,
		"speedup":          float64(nsILP) / float64(nsDP),
		"dp_makespan_ns":   int64(dpMakespan),
		"ilp_makespan_ns":  int64(ilpMakespan),
		"quality_vs_exact": float64(dpMakespan) / float64(ilpMakespan),
		"note":             "StagePipelineDP rung latency vs the exact ILP rung on the same graph; TestPipelineRegression holds ns_per_dp_plan to <=2x of this snapshot",
	}
	buf, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_pipeline.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// TestPipelineRegression is the CI gate behind make bench-pipeline:
// re-times the StagePipelineDP rung and fails if it regresses more
// than 2x over the committed BENCH_pipeline.json snapshot. Wall-clock
// gates are noisy on shared runners, so it takes the best of three
// solves and only the PESTO_BENCH_PIPELINE=1 environment opts in.
func TestPipelineRegression(t *testing.T) {
	if os.Getenv("PESTO_BENCH_PIPELINE") == "" {
		t.Skip("set PESTO_BENCH_PIPELINE=1 to run the pipeline regression gate")
	}
	raw, err := os.ReadFile("../../BENCH_pipeline.json")
	if err != nil {
		t.Fatalf("no committed snapshot: %v", err)
	}
	var snap struct {
		NsPerDPPlan    int64   `json:"ns_per_dp_plan"`
		Speedup        float64 `json:"speedup"`
		QualityVsExact float64 `json:"quality_vs_exact"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.NsPerDPPlan <= 0 {
		t.Fatal("committed BENCH_pipeline.json has no ns_per_dp_plan")
	}
	if snap.Speedup < 2 {
		t.Fatalf("committed snapshot speedup %.2f < 2x target: the DP rung must be meaningfully cheaper than the ILP rung", snap.Speedup)
	}
	g, sys := benchPipelineWorkload(t)
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		if took := timePipelineDP(t, g, sys); took < best {
			best = took
		}
	}
	limit := time.Duration(2 * snap.NsPerDPPlan)
	t.Logf("pipeline-dp rung best-of-3: %v (committed %v, limit %v)",
		best, time.Duration(snap.NsPerDPPlan), limit)
	if best > limit {
		t.Fatalf("pipeline-dp rung regressed: %v > 2x committed %v",
			best, time.Duration(snap.NsPerDPPlan))
	}
}
