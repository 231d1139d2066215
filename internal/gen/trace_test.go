package gen

import (
	"testing"
)

func TestTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{Corpus: 16, Requests: 2000, Seed: 42, Nodes: 10}
	a, err := NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Seq) != len(b.Seq) || len(a.Configs) != len(b.Configs) {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", len(a.Seq), len(a.Configs), len(b.Seq), len(b.Configs))
	}
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			t.Fatalf("seq diverges at %d: %d vs %d", i, a.Seq[i], b.Seq[i])
		}
	}
	// Corpus graphs must be byte-identical across builds: compare
	// canonical fingerprints of each generated graph.
	for i := range a.Configs {
		ga, err := Generate(a.Configs[i])
		if err != nil {
			t.Fatalf("generate rank %d: %v", i, err)
		}
		gb, err := Generate(b.Configs[i])
		if err != nil {
			t.Fatalf("generate rank %d: %v", i, err)
		}
		if ga.Fingerprint() != gb.Fingerprint() {
			t.Fatalf("rank %d graph differs across identical configs", i)
		}
	}
}

func TestTraceZipfSkew(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Corpus: 32, Requests: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(tr.Configs))
	for _, i := range tr.Seq {
		counts[i]++
	}
	// Rank 0 must dominate: strictly the most popular, and hot enough
	// that caching it matters (Zipf 1.2 over 32 ranks gives rank 0 well
	// over a third of requests).
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0] {
			t.Fatalf("rank %d (%d requests) hotter than rank 0 (%d)", i, counts[i], counts[0])
		}
	}
	if counts[0] < len(tr.Seq)/4 {
		t.Fatalf("rank 0 only %d/%d requests; skew too weak", counts[0], len(tr.Seq))
	}
	// Every index must stay in range (Counts would have panicked, but
	// hold the bound explicitly).
	for _, i := range tr.Seq {
		if i < 0 || i >= 32 {
			t.Fatalf("sequence index %d out of corpus range", i)
		}
	}
}

func TestTraceCorpusValidAndDistinct(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Corpus: 12, Requests: 1, Seed: 3, Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[32]byte]int{}
	for i, c := range tr.Configs {
		g, err := Generate(c)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		fp := g.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("ranks %d and %d generated identical graphs", prev, i)
		}
		seen[fp] = i
	}
}

func TestTraceDefaults(t *testing.T) {
	tr, err := NewTrace(TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Configs) != 64 || len(tr.Seq) != 1000 {
		t.Fatalf("defaults gave corpus %d, requests %d", len(tr.Configs), len(tr.Seq))
	}
}
