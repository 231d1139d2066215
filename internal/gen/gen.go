// Package gen produces seeded random computation DAGs spanning the
// model shapes of the Pesto paper's evaluation: serial chains (RNNLM
// unrolled steps), fork-join diamonds (NASNet cell branches), layered
// fan-outs (Transformer/NMT blocks) and colocation-heavy variants, plus
// an unstructured random family. Equal configs generate byte-identical
// graphs — the property every differential test in internal/verify
// builds on — and every generated graph passes graph.Validate.
//
// The generator exists so the verification harness can hold the
// placement engines to account on graph families they were not tuned
// on, the way Mayer et al. and Tarnawski et al. validate schedulers on
// randomized graph families rather than a handful of hand-built models.
package gen

import (
	"fmt"
	"math/rand"
	"time"

	"pesto/internal/graph"
)

// Family selects the structural shape of a generated DAG.
type Family int

const (
	// Chain is a serial pipeline: one CPU input feeding a linear chain
	// of GPU operations (the RNNLM unrolled-step shape).
	Chain Family = iota + 1
	// Diamond is repeated fork-join: a stem operation fans out to a set
	// of parallel branches that rejoin in a reduction (the NASNet cell
	// shape).
	Diamond
	// Layered is a dense layered fan-out: L layers of W operations with
	// 1–3 predecessors each in the previous layer plus sparse skip
	// connections (the Transformer/NMT block shape).
	Layered
	// ColocHeavy is Layered with most GPU operations bound into
	// colocation groups of 2–4 — the variable/optimizer pairs that make
	// colocation constraints bind.
	ColocHeavy
	// Random is an unstructured DAG: each operation draws 1–4
	// predecessors uniformly among earlier operations.
	Random
	// Pipeline is a deep block-sequential shape built for pipeline
	// parallelism: B internally-dense blocks of W operations chained
	// through narrow single-edge cuts, so contiguous stage partitions
	// have cheap boundaries. Deliberately NOT in Families() —
	// RandomConfig's population (and every seeded sweep built on it)
	// stays byte-identical; request it explicitly via PipelineConfig.
	Pipeline
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case Chain:
		return "chain"
	case Diamond:
		return "diamond"
	case Layered:
		return "layered"
	case ColocHeavy:
		return "coloc-heavy"
	case Random:
		return "random"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Families lists every generator family, in order.
func Families() []Family { return []Family{Chain, Diamond, Layered, ColocHeavy, Random} }

// Config parameterizes one generated instance. The zero value of every
// field means "use the default"; Generate resolves defaults through
// withDefaults so equal Configs always mean equal graphs.
type Config struct {
	// Family selects the structural shape; zero means Layered.
	Family Family
	// Seed drives every random choice. Equal (Family, Seed, …) configs
	// generate byte-identical graphs.
	Seed int64
	// Nodes is the approximate number of GPU operations; families round
	// it to their shape. Zero means 24.
	Nodes int
	// Width is the parallel width of Diamond branches and Layered
	// layers; zero derives it from Nodes.
	Width int
	// CPUOps is the number of CPU-affine input-pipeline operations
	// feeding the first GPU operations; zero means 1.
	CPUOps int
	// MinCost and MaxCost bound per-operation compute times; zero means
	// 5µs–500µs (the short-op regime of Figure 4a).
	MinCost, MaxCost time.Duration
	// MinBytes and MaxBytes bound per-edge tensor sizes; zero means
	// 1KiB–1MiB.
	MinBytes, MaxBytes int64
	// MinMem and MaxMem bound per-operation resident memory; zero means
	// 1MiB–32MiB.
	MinMem, MaxMem int64
	// ColocFrac is the fraction of GPU operations bound into colocation
	// groups (only ColocHeavy uses a non-trivial default of 0.6; other
	// families default to 0).
	ColocFrac float64
}

// skipProb is the probability of an extra skip edge per Layered
// operation.
const skipProb = 0.1

func (c Config) withDefaults() Config {
	if c.Family == 0 {
		c.Family = Layered
	}
	if c.Nodes <= 0 {
		c.Nodes = 24
	}
	if c.Width <= 0 {
		c.Width = 2 + c.Nodes/12
	}
	if c.CPUOps <= 0 {
		c.CPUOps = 1
	}
	if c.MinCost <= 0 {
		c.MinCost = 5 * time.Microsecond
	}
	if c.MaxCost <= 0 {
		c.MaxCost = 500 * time.Microsecond
	}
	if c.MaxCost < c.MinCost {
		c.MaxCost = c.MinCost
	}
	if c.MinBytes <= 0 {
		c.MinBytes = 1 << 10
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 20
	}
	if c.MaxBytes < c.MinBytes {
		c.MaxBytes = c.MinBytes
	}
	if c.MinMem <= 0 {
		c.MinMem = 1 << 20
	}
	if c.MaxMem <= 0 {
		c.MaxMem = 32 << 20
	}
	if c.MaxMem < c.MinMem {
		c.MaxMem = c.MinMem
	}
	if c.ColocFrac <= 0 && c.Family == ColocHeavy {
		c.ColocFrac = 0.6
	}
	if c.ColocFrac < 0 {
		c.ColocFrac = 0
	}
	if c.ColocFrac > 1 {
		c.ColocFrac = 1
	}
	return c
}

// RandomConfig derives a full Config deterministically from one seed:
// the family, size and distributions are themselves seeded draws. It is
// the sweep driver's way of covering the whole family × shape space
// with a single integer per instance.
func RandomConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed ^ 0x5e3779b97f4a7c15))
	fams := Families()
	cfg := Config{
		Family:  fams[rng.Intn(len(fams))],
		Seed:    seed,
		Nodes:   8 + rng.Intn(56),
		CPUOps:  1 + rng.Intn(2),
		MinCost: time.Duration(1+rng.Intn(20)) * time.Microsecond,
	}
	cfg.MaxCost = cfg.MinCost * time.Duration(2+rng.Intn(40))
	cfg.MinBytes = int64(1) << uint(8+rng.Intn(6)) // 256B..8KiB
	cfg.MaxBytes = cfg.MinBytes << uint(1+rng.Intn(8))
	cfg.MinMem = int64(1) << uint(18+rng.Intn(4)) // 256KiB..2MiB
	cfg.MaxMem = cfg.MinMem << uint(1+rng.Intn(6))
	if cfg.Family == ColocHeavy {
		cfg.ColocFrac = 0.3 + 0.5*rng.Float64()
	}
	return cfg
}

// PipelineConfig derives a pipeline-friendly Config deterministically
// from one seed: a Pipeline-family graph deep enough to cut into
// several balanced stages, sized like the layered model zoo. It is the
// pipeline sweep's counterpart to RandomConfig.
func PipelineConfig(seed int64) Config {
	rng := rand.New(rand.NewSource(seed ^ 0x7f4a7c159e3779b9))
	cfg := Config{
		Family:  Pipeline,
		Seed:    seed,
		Nodes:   24 + rng.Intn(40),
		Width:   2 + rng.Intn(3),
		CPUOps:  1,
		MinCost: time.Duration(5+rng.Intn(20)) * time.Microsecond,
	}
	cfg.MaxCost = cfg.MinCost * time.Duration(2+rng.Intn(20))
	cfg.MinBytes = int64(1) << uint(8+rng.Intn(4)) // 256B..2KiB
	cfg.MaxBytes = cfg.MinBytes << uint(1+rng.Intn(6))
	cfg.MinMem = int64(1) << uint(18+rng.Intn(3))
	cfg.MaxMem = cfg.MinMem << uint(1+rng.Intn(5))
	return cfg
}

// Generate builds the DAG described by cfg. The graph is acyclic by
// construction (edges only go from lower to higher IDs), validates
// structurally, and is byte-identical for equal configs.
func Generate(cfg Config) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := &builder{cfg: cfg, rng: rng, g: graph.New(cfg.Nodes + cfg.CPUOps)}

	switch cfg.Family {
	case Chain:
		b.chain()
	case Diamond:
		b.diamond()
	case Layered, ColocHeavy:
		b.layered()
	case Random:
		b.random()
	case Pipeline:
		b.pipeline()
	default:
		return nil, fmt.Errorf("gen: unknown family %v", cfg.Family)
	}
	if cfg.ColocFrac > 0 {
		b.colocate()
	}
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated graph invalid: %w", err)
	}
	return b.g, nil
}

type builder struct {
	cfg Config
	rng *rand.Rand
	g   *graph.Graph
	// gpu lists the GPU operations in creation order, the pool the
	// colocation pass draws from.
	gpu []graph.NodeID
}

func (b *builder) cost() time.Duration {
	lo, hi := b.cfg.MinCost, b.cfg.MaxCost
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(b.rng.Int63n(int64(hi-lo)+1))
}

func (b *builder) bytes() int64 {
	lo, hi := b.cfg.MinBytes, b.cfg.MaxBytes
	if hi <= lo {
		return lo
	}
	return lo + b.rng.Int63n(hi-lo+1)
}

func (b *builder) mem() int64 {
	lo, hi := b.cfg.MinMem, b.cfg.MaxMem
	if hi <= lo {
		return lo
	}
	return lo + b.rng.Int63n(hi-lo+1)
}

func (b *builder) addGPU(name string, layer int) graph.NodeID {
	id := b.g.AddNode(graph.Node{
		Name:   name,
		Kind:   graph.KindGPU,
		Cost:   b.cost(),
		Memory: b.mem(),
		Layer:  layer,
	})
	b.gpu = append(b.gpu, id)
	return id
}

// inputs adds the CPU-affine input-pipeline operations and returns
// their IDs; every family wires them into its first GPU operations.
func (b *builder) inputs() []graph.NodeID {
	ids := make([]graph.NodeID, b.cfg.CPUOps)
	for i := range ids {
		ids[i] = b.g.AddNode(graph.Node{
			Name:  fmt.Sprintf("input/%d", i),
			Kind:  graph.KindCPU,
			Cost:  b.cost() / 4,
			Layer: 0,
		})
	}
	return ids
}

func (b *builder) edge(from, to graph.NodeID) {
	// Duplicate edges are possible when random draws collide; they are
	// simply skipped (AddEdge rejects them), keeping construction total.
	_ = b.g.AddEdge(from, to, b.bytes())
}

// chain builds input → op0 → op1 → … → op(n-1).
func (b *builder) chain() {
	in := b.inputs()
	prev := graph.NodeID(-1)
	for i := 0; i < b.cfg.Nodes; i++ {
		id := b.addGPU(fmt.Sprintf("chain/%d", i), 1+i)
		if prev < 0 {
			for _, cin := range in {
				b.edge(cin, id)
			}
		} else {
			b.edge(prev, id)
		}
		prev = id
	}
}

// diamond builds repeated fork-join cells: stem → W branches → join.
func (b *builder) diamond() {
	in := b.inputs()
	w := b.cfg.Width
	if w < 2 {
		w = 2
	}
	prev := graph.NodeID(-1)
	layer := 1
	remaining := b.cfg.Nodes
	cell := 0
	for remaining > 0 {
		stem := b.addGPU(fmt.Sprintf("cell%d/stem", cell), layer)
		if prev < 0 {
			for _, cin := range in {
				b.edge(cin, stem)
			}
		} else {
			b.edge(prev, stem)
		}
		remaining--
		branches := w
		if branches > remaining-1 {
			branches = remaining - 1
		}
		if branches <= 0 {
			prev = stem
			break
		}
		join := graph.NodeID(-1)
		var mids []graph.NodeID
		for j := 0; j < branches; j++ {
			mid := b.addGPU(fmt.Sprintf("cell%d/branch%d", cell, j), layer+1)
			b.edge(stem, mid)
			mids = append(mids, mid)
			remaining--
		}
		join = b.addGPU(fmt.Sprintf("cell%d/join", cell), layer+2)
		for _, mid := range mids {
			b.edge(mid, join)
		}
		remaining--
		prev = join
		layer += 3
		cell++
	}
}

// layered builds L×W dense layers with sparse skip connections.
func (b *builder) layered() {
	in := b.inputs()
	w := b.cfg.Width
	if w < 1 {
		w = 1
	}
	layers := (b.cfg.Nodes + w - 1) / w
	if layers < 1 {
		layers = 1
	}
	var prevLayer []graph.NodeID
	made := 0
	for l := 0; l < layers && made < b.cfg.Nodes; l++ {
		var cur []graph.NodeID
		for j := 0; j < w && made < b.cfg.Nodes; j++ {
			id := b.addGPU(fmt.Sprintf("layer%d/op%d", l, j), 1+l)
			made++
			if l == 0 {
				for _, cin := range in {
					b.edge(cin, id)
				}
			} else {
				// 1–3 predecessors in the previous layer, always ≥ 1 so
				// the graph stays connected layer to layer.
				k := 1 + b.rng.Intn(3)
				if k > len(prevLayer) {
					k = len(prevLayer)
				}
				for _, pi := range b.rng.Perm(len(prevLayer))[:k] {
					b.edge(prevLayer[pi], id)
				}
				// Sparse skip connection to any earlier GPU op — the
				// residual/attention shortcut shape.
				if b.rng.Float64() < skipProb && len(b.gpu) > len(prevLayer)+1 {
					src := b.gpu[b.rng.Intn(len(b.gpu)-len(prevLayer)-1)]
					b.edge(src, id)
				}
			}
			cur = append(cur, id)
		}
		prevLayer = cur
	}
}

// random wires each operation to 1–4 uniformly chosen earlier ones.
func (b *builder) random() {
	in := b.inputs()
	for i := 0; i < b.cfg.Nodes; i++ {
		id := b.addGPU(fmt.Sprintf("op/%d", i), 1+i/4)
		if i == 0 {
			for _, cin := range in {
				b.edge(cin, id)
			}
			continue
		}
		k := 1 + b.rng.Intn(4)
		if k > i {
			k = i
		}
		for _, pi := range b.rng.Perm(i)[:k] {
			b.edge(b.gpu[pi], id)
		}
	}
}

// pipeline builds B internally-dense blocks of ~Width operations each,
// chained through a single narrow edge between consecutive blocks: the
// stage-friendly shape where a contiguous split pays one activation
// transfer per boundary. Layer is the block index, so coarsening and
// the contiguous-split DP both see the intended stage structure.
func (b *builder) pipeline() {
	in := b.inputs()
	w := b.cfg.Width
	if w < 1 {
		w = 1
	}
	blocks := (b.cfg.Nodes + w) / (w + 1)
	if blocks < 2 {
		blocks = 2
	}
	made := 0
	prevOut := graph.NodeID(-1)
	for blk := 0; blk < blocks && made < b.cfg.Nodes; blk++ {
		entry := b.addGPU(fmt.Sprintf("block%d/in", blk), 1+blk)
		made++
		if prevOut < 0 {
			for _, cin := range in {
				b.edge(cin, entry)
			}
		} else {
			b.edge(prevOut, entry)
		}
		// Dense interior: every interior op hangs off the entry and
		// feeds the block's output op, so within-block communication
		// dwarfs the single boundary edge.
		var mids []graph.NodeID
		for j := 0; j < w-1 && made < b.cfg.Nodes; j++ {
			mid := b.addGPU(fmt.Sprintf("block%d/op%d", blk, j), 1+blk)
			b.edge(entry, mid)
			mids = append(mids, mid)
			made++
		}
		out := entry
		if len(mids) > 0 && made < b.cfg.Nodes {
			out = b.addGPU(fmt.Sprintf("block%d/out", blk), 1+blk)
			for _, mid := range mids {
				b.edge(mid, out)
			}
			made++
		} else if len(mids) > 0 {
			out = mids[len(mids)-1]
		}
		prevOut = out
	}
}

// colocate binds a ColocFrac fraction of the GPU operations into
// groups of 2–4 consecutive operations (consecutive in creation order,
// so groups span real dataflow neighbourhoods).
func (b *builder) colocate() {
	want := int(float64(len(b.gpu)) * b.cfg.ColocFrac)
	grp := 0
	for i := 0; i+1 < len(b.gpu) && want > 0; {
		size := 2 + b.rng.Intn(3)
		if size > want {
			size = want
		}
		if size > len(b.gpu)-i {
			size = len(b.gpu) - i
		}
		if size < 2 {
			break
		}
		name := fmt.Sprintf("coloc/%d", grp)
		for j := 0; j < size; j++ {
			_ = b.g.SetColoc(b.gpu[i+j], name)
		}
		grp++
		want -= size
		// Leave a random gap so groups don't tile the whole graph.
		i += size + b.rng.Intn(3)
	}
}
