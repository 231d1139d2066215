package models

import (
	"strings"
	"testing"
	"time"

	"pesto/internal/graph"
)

func buildVariant(t *testing.T, v Variant) *graph.Graph {
	t.Helper()
	g, err := v.Build()
	if err != nil {
		t.Fatalf("%s: %v", v.Name, err)
	}
	return g
}

func TestAllPaperVariantsBuildValidDAGs(t *testing.T) {
	for _, v := range PaperVariants() {
		g := buildVariant(t, v)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", v.Name, err)
		}
		if g.NumNodes() < 200 {
			t.Errorf("%s: suspiciously small graph (%d nodes)", v.Name, g.NumNodes())
		}
		roots := 0
		for _, nd := range g.Nodes() {
			if g.InDegree(nd.ID) == 0 {
				roots++
			}
		}
		if roots == 0 || len(g.Leaves()) == 0 {
			t.Errorf("%s: missing roots or leaves", v.Name)
		}
	}
}

func TestSmallVariantsBuild(t *testing.T) {
	for _, v := range SmallVariants() {
		g := buildVariant(t, v)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
}

func TestMemoryCalibration(t *testing.T) {
	// §5.2: only RNNLM-2-2048 and NMT-2-1024 fit on one 16 GB GPU.
	const gpu = 16 << 30
	fits := map[string]bool{"RNNLM-2-2048": true, "NMT-2-1024": true}
	for _, v := range PaperVariants() {
		g := buildVariant(t, v)
		total := g.TotalMemory()
		if fits[v.Name] {
			if total > gpu {
				t.Errorf("%s: %d bytes should fit one GPU", v.Name, total)
			}
		} else {
			if total <= gpu {
				t.Errorf("%s: %d bytes should exceed one GPU", v.Name, total)
			}
			if total > 2*gpu {
				t.Errorf("%s: %d bytes cannot fit two GPUs at all", v.Name, total)
			}
		}
	}
}

func TestTable1ShapeMostOpsAreSmall(t *testing.T) {
	// Table 1: the <10µs bucket dominates every model.
	for _, v := range PaperVariants() {
		g := buildVariant(t, v)
		small, total := 0, g.NumNodes()
		for _, nd := range g.Nodes() {
			if nd.Cost < 10*time.Microsecond {
				small++
			}
		}
		if float64(small) < 0.5*float64(total) {
			t.Errorf("%s: only %d/%d ops under 10µs; Table 1 expects a majority", v.Name, small, total)
		}
	}
}

func TestRNNLMGridStructure(t *testing.T) {
	g, err := RNNLM(RNNLMConfig{Layers: 2, Hidden: 64, Batch: 4, SeqLen: 4, Vocab: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Find cells and confirm the left-to-right and bottom-to-top
	// dependencies exist through their matmuls.
	ids := map[string]graph.NodeID{}
	for _, nd := range g.Nodes() {
		ids[nd.Name] = nd.ID
	}
	h11, ok1 := ids["fw/l1/t1/matmul"]
	h01, ok2 := ids["fw/l1/t0/h_mul_o"]
	if !ok1 || !ok2 {
		t.Fatal("expected cell ops missing")
	}
	if !g.Reachable(h01, h11) {
		t.Error("cell (1,0) does not feed cell (1,1): temporal dependency missing")
	}
	l2, ok := ids["fw/l2/t0/matmul"]
	if !ok {
		t.Fatal("layer-2 cell missing")
	}
	if !g.Reachable(ids["fw/l1/t0/h_mul_o"], l2) {
		t.Error("layer 1 does not feed layer 2: stacking dependency missing")
	}
	// Backward exists and is reachable from the losses.
	var bwOps int
	for name := range ids {
		if strings.HasPrefix(name, "bw/") {
			bwOps++
		}
	}
	if bwOps == 0 {
		t.Error("no backward operations generated")
	}
}

func TestNMTHasAttentionPerDecoderStep(t *testing.T) {
	g, err := NMT(NMTConfig{Layers: 2, Hidden: 64, Batch: 4, SrcLen: 3, DstLen: 4, Vocab: 100})
	if err != nil {
		t.Fatal(err)
	}
	attn := 0
	for _, nd := range g.Nodes() {
		if strings.HasPrefix(nd.Name, "attn/") && strings.HasSuffix(nd.Name, "/scores") {
			attn++
		}
	}
	if attn != 4 {
		t.Fatalf("attention score ops = %d, want one per decoder step (4)", attn)
	}
}

func TestTransformerHeads(t *testing.T) {
	cfg := TransformerConfig{Layers: 2, Heads: 4, Hidden: 128, Batch: 2, SeqLen: 4, Vocab: 100}
	g, err := Transformer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heads := 0
	for _, nd := range g.Nodes() {
		if strings.HasPrefix(nd.Name, "enc/l1/self_attn/head") && strings.HasSuffix(nd.Name, "/scores") {
			heads++
		}
	}
	if heads != cfg.Heads {
		t.Fatalf("layer-1 self-attention heads = %d, want %d", heads, cfg.Heads)
	}
}

func TestNASNetBranchTags(t *testing.T) {
	g, err := NASNet(NASNetConfig{Cells: 2, Filters: 16, Batch: 2, Spatial: 4})
	if err != nil {
		t.Fatal(err)
	}
	branches := map[int]int{}
	untagged := 0
	for _, nd := range g.Nodes() {
		if nd.Kind != graph.KindGPU {
			continue
		}
		if nd.Branch > 0 {
			branches[nd.Branch]++
		} else {
			untagged++
		}
	}
	if len(branches) != 10 {
		t.Fatalf("distinct branch tags = %d, want 10 (5 blocks × 2 branches)", len(branches))
	}
	if untagged == 0 {
		t.Fatal("expected untagged stem/concat ops")
	}
}

func TestVariantLookup(t *testing.T) {
	if _, err := FindVariant("RNNLM-2-2048"); err != nil {
		t.Errorf("FindVariant: %v", err)
	}
	if _, err := FindVariant("nope"); err == nil {
		t.Error("FindVariant should fail for unknown names")
	}
}

func TestToyFigure2(t *testing.T) {
	g, err := ToyFigure2()
	if err != nil {
		t.Fatal(err)
	}
	// A + two 9-op chains + F + G + H.
	if g.NumNodes() != 22 {
		t.Fatalf("nodes = %d, want 22", g.NumNodes())
	}
	ids := map[string]graph.NodeID{}
	for _, nd := range g.Nodes() {
		ids[nd.Name] = nd.ID
	}
	// The heavy pipeline F -> G must be serial, and independent of the
	// light chains (so a scheduler can hide the chains behind it).
	if !g.Reachable(ids["F"], ids["G"]) {
		t.Error("F must feed G")
	}
	if g.Reachable(ids["s1"], ids["F"]) || g.Reachable(ids["F"], ids["s1"]) {
		t.Error("light chain and heavy pipeline must be parallel")
	}
	// Heavy ops dominate any single chain: the compute-oblivious
	// scheduler's mistake must be expensive.
	f, _ := g.Node(ids["F"])
	s, _ := g.Node(ids["s1"])
	if f.Cost < 5*s.Cost {
		t.Error("F not heavy enough relative to chain ops")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RNNLM(RNNLMConfig{}); err == nil {
		t.Error("zero RNNLM config should fail")
	}
	if _, err := NMT(NMTConfig{}); err == nil {
		t.Error("zero NMT config should fail")
	}
	if _, err := Transformer(TransformerConfig{}); err == nil {
		t.Error("zero Transformer config should fail")
	}
	if _, err := NASNet(NASNetConfig{}); err == nil {
		t.Error("zero NASNet config should fail")
	}
}

func TestScaleMemoryExact(t *testing.T) {
	g, err := RNNLM(RNNLMConfig{Layers: 1, Hidden: 32, Batch: 2, SeqLen: 2, Vocab: 50, TargetMemory: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	total := g.TotalMemory()
	if d := total - (1 << 30); d < -(1<<20) || d > 1<<20 {
		t.Fatalf("calibrated memory %d, want ~1GiB", total)
	}
}
