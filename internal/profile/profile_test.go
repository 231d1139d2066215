package profile

import (
	"math"
	"testing"
	"time"

	"pesto/internal/comm"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

func layeredGraph(t *testing.T, layers, width int) *graph.Graph {
	t.Helper()
	g := graph.New(layers * width)
	var prev []graph.NodeID
	for l := 0; l < layers; l++ {
		var cur []graph.NodeID
		for w := 0; w < width; w++ {
			cost := time.Duration(10+l*5+w) * time.Microsecond
			cur = append(cur, g.AddNode(graph.Node{
				Name: "op", Kind: graph.KindGPU, Cost: cost, Layer: l,
			}))
		}
		for _, p := range prev {
			for _, c := range cur {
				if err := g.AddEdge(p, c, 1024); err != nil {
					t.Fatalf("AddEdge: %v", err)
				}
			}
		}
		prev = cur
	}
	return g
}

func TestComputeMeansCloseToTruth(t *testing.T) {
	g := layeredGraph(t, 4, 3)
	prof, err := Compute(g, Options{Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	for _, nd := range g.Nodes() {
		mean := float64(prof.Mean[nd.ID])
		truth := float64(nd.Cost)
		if math.Abs(mean-truth)/truth > 0.05 {
			t.Errorf("node %d: mean %v vs truth %v", nd.ID, prof.Mean[nd.ID], nd.Cost)
		}
	}
}

func TestComputeNormStddevSmall(t *testing.T) {
	// Figure 4a regime: normalized stddev should be small (< ~0.15)
	// for essentially all ops at sigma=0.03.
	g := layeredGraph(t, 5, 4)
	prof, err := Compute(g, Options{Iterations: 100, Seed: 2})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	cdf := prof.StddevCDF(0)
	if len(cdf) != g.NumNodes() {
		t.Fatalf("CDF covers %d of %d ops", len(cdf), g.NumNodes())
	}
	if p95 := Quantile(cdf, 0.95); p95 > 0.15 {
		t.Errorf("95th percentile normalized stddev = %g, want < 0.15", p95)
	}
	// CDF must be sorted.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("CDF not sorted")
		}
	}
}

func TestStddevCDFFiltersSmallOps(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Microsecond})
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Millisecond})
	prof, err := Compute(g, Options{Iterations: 10, Seed: 3})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if got := len(prof.StddevCDF(100 * time.Microsecond)); got != 1 {
		t.Fatalf("filtered CDF has %d entries, want 1", got)
	}
}

func TestApplyTo(t *testing.T) {
	g := layeredGraph(t, 2, 2)
	prof, err := Compute(g, Options{Iterations: 20, Seed: 4})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if err := prof.ApplyTo(g); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	for _, nd := range g.Nodes() {
		if nd.Cost != prof.Mean[nd.ID] {
			t.Errorf("node %d cost %v != mean %v", nd.ID, nd.Cost, prof.Mean[nd.ID])
		}
	}
	other := graph.New(1)
	other.AddNode(graph.Node{})
	if err := prof.ApplyTo(other); err == nil {
		t.Error("ApplyTo on mismatched graph should fail")
	}
}

func TestCommunicationFitQuality(t *testing.T) {
	sys := sim.NewSystem(2, 16<<30)
	for _, lt := range []comm.LinkType{comm.CPUToGPU, comm.GPUToCPU, comm.GPUToGPU} {
		prof, err := Communication(sys, lt, 5)
		if err != nil {
			t.Fatalf("Communication(%v): %v", lt, err)
		}
		if prof.Model.R2 < 0.92 {
			t.Errorf("%v: R² = %g, want >= 0.92 (Figure 4b regime)", lt, prof.Model.R2)
		}
		// The fitted slope should approximate the true model's.
		truth := sys.Comm.Model(lt)
		if math.Abs(prof.Model.Beta1-truth.Beta1)/truth.Beta1 > 0.1 {
			t.Errorf("%v: Beta1 %g vs truth %g", lt, prof.Model.Beta1, truth.Beta1)
		}
	}
}

func TestCommunicationNeedsDevices(t *testing.T) {
	oneGPU := sim.NewSystem(1, 16<<30)
	if _, err := Communication(oneGPU, comm.GPUToGPU, 0); err == nil {
		t.Error("GPU→GPU profiling with one GPU should fail")
	}
	noGPU := sim.NewSystem(0, 0)
	if _, err := Communication(noGPU, comm.CPUToGPU, 0); err == nil {
		t.Error("CPU→GPU profiling without GPUs should fail")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {1, 5}, {0.5, 3}, {-1, 1}, {2, 5}}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
}

func TestComputeRejectsCyclicGraph(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 1})
	b := g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 1})
	_ = g.AddEdge(a, b, 1)
	_ = g.AddEdge(b, a, 1)
	if _, err := Compute(g, Options{Iterations: 1}); err == nil {
		t.Fatal("expected error for cyclic graph")
	}
}
