package gen

import (
	"fmt"
	"math/rand"
)

// A Trace is a replayable request workload for the serving tier: a
// corpus of distinct graphs plus a Zipf-distributed access sequence
// over it. Production inference traffic is heavily skewed — a handful
// of hot models absorb most requests while a long tail appears rarely
// — and that skew is exactly what exercises a fingerprint-routed
// fleet: hot keys stress one ring arc, cold keys defeat caches, and a
// replica kill moves a whole arc's worth of hot traffic at once. Equal
// TraceConfigs build byte-identical traces (same corpus graphs, same
// sequence), the property the chaos harness's oracle comparison and
// the CI replay path both build on.

// TraceConfig parameterizes one workload. The zero value of every
// field means "use the default"; NewTrace resolves defaults so equal
// configs always mean equal traces.
type TraceConfig struct {
	// Corpus is the number of distinct graphs; zero means 64.
	Corpus int
	// Requests is the length of the access sequence; zero means 1000.
	Requests int
	// Skew is the Zipf s parameter (must end up > 1; larger is more
	// skewed). Zero means 1.2, a hot-model-dominated mix.
	Skew float64
	// Seed drives both corpus generation and the access sequence.
	Seed int64
	// Nodes overrides the per-graph operation count; zero keeps each
	// corpus graph's own seeded draw (8–63 ops). Chaos runs set a small
	// value so solves stay fast enough to push 100k requests through.
	Nodes int
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Corpus <= 0 {
		c.Corpus = 64
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Skew <= 1 {
		c.Skew = 1.2
	}
	return c
}

// Trace is a realized workload: Configs[i] generates the i-th corpus
// graph, and Seq maps each request to a corpus index. Corpus indices
// are popularity ranks — index 0 is the hottest graph.
type Trace struct {
	// Configs holds the generator config of each corpus graph; callers
	// pass them to Generate (lazily or up front) so a trace stays cheap
	// to ship between processes.
	Configs []Config
	// Seq is the request sequence: Seq[r] is the corpus index served by
	// request r.
	Seq []int
}

// NewTrace builds the workload for cfg. Construction is deterministic:
// the corpus configs are seeded draws from cfg.Seed and the sequence
// comes from a dedicated Zipf stream, so equal configs are equal
// traces.
func NewTrace(cfg TraceConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	tr := &Trace{
		Configs: make([]Config, cfg.Corpus),
		Seq:     make([]int, cfg.Requests),
	}
	// Corpus: one derived seed per rank. The xor constant separates
	// this stream from RandomConfig's own mixing so trace corpora don't
	// alias sweep corpora at small seeds.
	families := Families()
	for i := range tr.Configs {
		c := RandomConfig(cfg.Seed ^ 0x7ace<<32 ^ int64(i)*0x9e3779b9)
		c.Family = families[i%len(families)]
		if cfg.Nodes > 0 {
			c.Nodes = cfg.Nodes
		}
		if c.Family != ColocHeavy {
			c.ColocFrac = 0
		}
		tr.Configs[i] = c
	}
	// Sequence: rand.Zipf over [0, Corpus-1] with rank 0 hottest.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x2f1e9))
	z := rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Corpus-1))
	if z == nil {
		return nil, fmt.Errorf("gen: bad zipf parameters (skew %v, corpus %d)", cfg.Skew, cfg.Corpus)
	}
	for r := range tr.Seq {
		tr.Seq[r] = int(z.Uint64())
	}
	return tr, nil
}
