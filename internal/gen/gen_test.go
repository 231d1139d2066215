package gen

import (
	"bytes"
	"testing"
	"time"

	"pesto/internal/graph"
)

// jsonBytes serializes a graph for byte-identity comparison.
func jsonBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGenerateEveryFamilyValidates(t *testing.T) {
	for _, fam := range Families() {
		for seed := int64(0); seed < 8; seed++ {
			g, err := Generate(Config{Family: fam, Seed: seed, Nodes: 20})
			if err != nil {
				t.Fatalf("%v seed %d: %v", fam, seed, err)
			}
			if g.NumNodes() == 0 {
				t.Fatalf("%v seed %d: empty graph", fam, seed)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%v seed %d: %v", fam, seed, err)
			}
			// Exactly one weakly-connected entry: every non-root must be
			// reachable through at least one predecessor, which Validate's
			// acyclicity plus ≥1-pred construction gives. Check roots are
			// only the CPU inputs.
			for _, nd := range g.Nodes() {
				if g.InDegree(nd.ID) == 0 && nd.Kind != graph.KindCPU {
					t.Fatalf("%v seed %d: non-input root %d (%v)", fam, seed, nd.ID, nd.Kind)
				}
			}
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, fam := range Families() {
		cfg := Config{Family: fam, Seed: 42, Nodes: 30}
		a, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, a), jsonBytes(t, b)) {
			t.Fatalf("%v: equal configs generated different graphs", fam)
		}
		c, err := Generate(Config{Family: fam, Seed: 43, Nodes: 30})
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(jsonBytes(t, a), jsonBytes(t, c)) {
			t.Fatalf("%v: different seeds generated identical graphs", fam)
		}
	}
}

func TestGenerateFamilyShapes(t *testing.T) {
	// Chain: one GPU op per rank, each with at most one GPU successor.
	g, err := Generate(Config{Family: Chain, Seed: 1, Nodes: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes() {
		if nd.Kind == graph.KindGPU && g.OutDegree(nd.ID) > 1 {
			t.Fatalf("chain node %d has out-degree %d", nd.ID, g.OutDegree(nd.ID))
		}
	}

	// Diamond: at least one fork (out-degree ≥ 2) and one join
	// (in-degree ≥ 2).
	g, err = Generate(Config{Family: Diamond, Seed: 1, Nodes: 16, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	fork, join := false, false
	for _, nd := range g.Nodes() {
		if nd.Kind != graph.KindGPU {
			continue
		}
		if g.OutDegree(nd.ID) >= 2 {
			fork = true
		}
		if g.InDegree(nd.ID) >= 2 {
			join = true
		}
	}
	if !fork || !join {
		t.Fatalf("diamond lacks fork (%v) or join (%v)", fork, join)
	}

	// ColocHeavy: a meaningful fraction of GPU ops carries groups, and
	// every group has at least two members.
	g, err = Generate(Config{Family: ColocHeavy, Seed: 1, Nodes: 30})
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	gpuOps, tagged := 0, 0
	for _, nd := range g.Nodes() {
		if nd.Kind != graph.KindGPU {
			continue
		}
		gpuOps++
		if nd.Coloc != "" {
			tagged++
			groups[nd.Coloc]++
		}
	}
	if tagged == 0 || float64(tagged) < 0.3*float64(gpuOps) {
		t.Fatalf("coloc-heavy tagged only %d of %d GPU ops", tagged, gpuOps)
	}
	for name, size := range groups {
		if size < 2 {
			t.Fatalf("group %q has %d member(s)", name, size)
		}
	}
}

func TestGenerateHonorsDistributions(t *testing.T) {
	cfg := Config{
		Family:  Layered,
		Seed:    7,
		Nodes:   40,
		MinCost: 10 * time.Microsecond, MaxCost: 20 * time.Microsecond,
		MinBytes: 100, MaxBytes: 200,
		MinMem: 1000, MaxMem: 2000,
	}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes() {
		if nd.Kind != graph.KindGPU {
			continue
		}
		if nd.Cost < cfg.MinCost || nd.Cost > cfg.MaxCost {
			t.Fatalf("node %d cost %v outside [%v,%v]", nd.ID, nd.Cost, cfg.MinCost, cfg.MaxCost)
		}
		if nd.Memory < cfg.MinMem || nd.Memory > cfg.MaxMem {
			t.Fatalf("node %d memory %d outside [%d,%d]", nd.ID, nd.Memory, cfg.MinMem, cfg.MaxMem)
		}
	}
	for _, e := range g.Edges() {
		if e.Bytes < cfg.MinBytes || e.Bytes > cfg.MaxBytes {
			t.Fatalf("edge (%d,%d) bytes %d outside [%d,%d]", e.From, e.To, e.Bytes, cfg.MinBytes, cfg.MaxBytes)
		}
	}
}

func TestRandomConfigCoversFamiliesDeterministically(t *testing.T) {
	seen := map[Family]bool{}
	for seed := int64(0); seed < 64; seed++ {
		a := RandomConfig(seed)
		b := RandomConfig(seed)
		if a != b {
			t.Fatalf("seed %d: RandomConfig not deterministic", seed)
		}
		seen[a.Family] = true
		if _, err := Generate(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, fam := range Families() {
		if !seen[fam] {
			t.Fatalf("64 seeds never drew family %v", fam)
		}
	}
}

// TestGeneratePipelineFamily covers the pipeline-friendly layered
// family: deterministic per seed, valid, block-structured (every block
// has a single entry fed by the previous block's exit, so contiguous
// stage cuts along the topological order are natural), and deliberately
// absent from Families() so existing random populations stay
// byte-identical.
func TestGeneratePipelineFamily(t *testing.T) {
	for _, fam := range Families() {
		if fam == Pipeline {
			t.Fatal("Pipeline joined Families(); existing seeded populations would shift")
		}
	}
	if Pipeline.String() != "pipeline" {
		t.Fatalf("Pipeline.String() = %q", Pipeline.String())
	}
	for seed := int64(0); seed < 8; seed++ {
		cfg := PipelineConfig(seed)
		if cfg.Family != Pipeline {
			t.Fatalf("PipelineConfig family = %v", cfg.Family)
		}
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Generate(PipelineConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, g), jsonBytes(t, b)) {
			t.Fatalf("seed %d: PipelineConfig not deterministic", seed)
		}
		gpuOps := 0
		for _, nd := range g.Nodes() {
			if nd.Kind == graph.KindGPU {
				gpuOps++
				if nd.Cost <= 0 {
					t.Fatalf("seed %d: op %d has no cost", seed, nd.ID)
				}
			}
		}
		if gpuOps < 4 {
			t.Fatalf("seed %d: only %d GPU ops; too thin to pipeline", seed, gpuOps)
		}
	}
	a, _ := Generate(PipelineConfig(0))
	b, _ := Generate(PipelineConfig(1))
	if bytes.Equal(jsonBytes(t, a), jsonBytes(t, b)) {
		t.Fatal("different seeds generated identical pipeline graphs")
	}
}
