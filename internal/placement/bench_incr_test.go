package placement

import (
	"context"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/incr"
	"pesto/internal/sim"
)

const benchIncrGPUMem = int64(16) << 30

// benchIncrWorkload builds the incremental benchmark's edit trace: the
// layered-96 (gen.Layered seed 7, 96 nodes) mutated by a
// 48-step seeded trace, with every intermediate graph and node map
// materialized up front so the timed loops pay for placement only.
func benchIncrWorkload(tb testing.TB) (base *graph.Graph, graphs []*graph.Graph, maps [][]graph.NodeID) {
	tb.Helper()
	base, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 96})
	if err != nil {
		tb.Fatal(err)
	}
	edits, err := gen.EditTrace(base, gen.EditTraceConfig{Seed: 17, Steps: 48})
	if err != nil {
		tb.Fatal(err)
	}
	cur := base
	for _, e := range edits {
		next, m, err := incr.Apply(cur, e)
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, next)
		maps = append(maps, m)
		cur = next
	}
	return base, graphs, maps
}

func benchIncrOptions() Options {
	return Options{
		ILPTimeLimit: 5 * time.Second,
		StartStage:   StageRefine,
		Seed:         1,
		Verify:       true,
	}
}

// runWarmTrace replays the whole edit trace through Incremental,
// chaining each step's plan into the next step's prior (initial cold
// anchor excluded from all timings). warmTotal/warm average the steps
// that stayed on the warm path — the re-places the speedup claim is
// about — while total/steps amortize over everything including
// chain-refresh and drift fallbacks. worstRatio is the worst
// warm-vs-cold makespan ratio observed when colds is non-nil (colds[i]
// is the from-scratch solve of graphs[i]).
func runWarmTrace(tb testing.TB, base *graph.Graph, graphs []*graph.Graph, maps [][]graph.NodeID, colds []*Result) (warmTotal, total time.Duration, steps, warm int, worstRatio float64) {
	tb.Helper()
	ctx := context.Background()
	opts := benchIncrOptions()
	sys := sim.NewSystem(2, benchIncrGPUMem)
	cold, err := PlaceMultiGPU(ctx, base, sys, opts)
	if err != nil {
		tb.Fatal(err)
	}
	prior := PriorPlacement{Graph: base, Plan: cold.Plan}
	for i, g := range graphs {
		prior.NodeMap = maps[i]
		start := time.Now()
		res, err := Incremental(ctx, g, sys, prior, opts)
		took := time.Since(start)
		total += took
		if err != nil {
			tb.Fatalf("step %d: %v", i, err)
		}
		steps++
		info := res.Provenance.Incremental
		if info == nil {
			tb.Fatalf("step %d: no incremental provenance", i)
		}
		if !info.ColdFallback {
			warmTotal += took
			warm++
		}
		if colds != nil {
			if r := float64(res.SimulatedMakespan) / float64(colds[i].SimulatedMakespan); r > worstRatio {
				worstRatio = r
			}
		}
		prior = PriorPlacement{Graph: g, Plan: res.Plan,
			ChainDepth: info.ChainDepth, AnchorQuality: info.AnchorQuality}
	}
	return warmTotal, total, steps, warm, worstRatio
}

// BenchmarkIncrementalTrace times cold from-scratch solves and the
// amortized incremental re-place (chain-refresh cold anchors included)
// over the same 48-step edit trace and reports the per-step times, the
// warm-over-cold speedup and the worst per-step makespan ratio as
// benchmark metrics. The quality pass re-solves every step cold, so the
// warm half only runs when not in -short mode.
func BenchmarkIncrementalTrace(b *testing.B) {
	base, graphs, maps := benchIncrWorkload(b)
	sys := sim.NewSystem(2, benchIncrGPUMem)
	opts := benchIncrOptions()
	ctx := context.Background()

	var nsCold float64
	b.Run("cold", func(b *testing.B) {
		// One from-scratch solve per trace step, averaged over the whole
		// trace — the same graph population the warm loop replays, so
		// the speedup compares like with like (the late-trace graphs
		// are larger and cost more than the early ones).
		var total time.Duration
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				start := time.Now()
				if _, err := PlaceMultiGPU(ctx, g, sys, opts); err != nil {
					b.Fatal(err)
				}
				total += time.Since(start)
			}
		}
		nsCold = float64(total) / float64(b.N*len(graphs))
		b.ReportMetric(nsCold, "ns/cold_solve")
	})
	b.Run("warm", func(b *testing.B) {
		if testing.Short() {
			b.Skip("full-trace replay with a cold quality oracle per step")
		}
		colds := make([]*Result, len(graphs))
		for i, g := range graphs {
			r, err := PlaceMultiGPU(ctx, g, sys, opts)
			if err != nil {
				b.Fatal(err)
			}
			colds[i] = r
		}
		b.ResetTimer()
		var warmTotal, total time.Duration
		var warm, steps int
		var worstRatio float64
		for i := 0; i < b.N; i++ {
			wd, d, n, w, ratio := runWarmTrace(b, base, graphs, maps, colds)
			warmTotal += wd
			total += d
			warm += w
			steps += n
			worstRatio = max(worstRatio, ratio)
		}
		if warm == 0 {
			b.Fatal("no step took the warm path")
		}
		nsWarm := float64(warmTotal) / float64(warm)
		b.ReportMetric(nsWarm, "ns/warm_replace")
		b.ReportMetric(float64(total)/float64(steps), "ns/step_amortized")
		b.ReportMetric(float64(warm)/float64(steps), "warm_share")
		b.ReportMetric(worstRatio, "max_makespan_ratio")
		if nsCold > 0 {
			b.ReportMetric(nsCold/nsWarm, "speedup")
		}
	})
}
