// Package models generates synthetic but structurally faithful
// computation graphs for the four giant DNN families the Pesto paper
// evaluates (§5.2): RNNLM, NMT, Transformer and NASNet, plus the toy
// DAG of Figure 2. The generators reproduce the properties the paper's
// results hinge on — LSTM grids for RNNLM/NMT, attention fan-out for
// Transformer, parallel branches for NASNet, an op-size distribution
// dominated by sub-10µs operations (Table 1), and memory footprints
// that make the large variants exceed a single 16 GB GPU.
//
// Operation compute costs follow simple roofline models of a V100-class
// GPU (matmuls at ~12 TFLOP/s, elementwise ops at ~900 GB/s, both with
// fixed launch overheads); tensor sizes on edges are exact 4-byte
// element counts. Memory footprints are calibrated per variant so the
// fits/doesn't-fit facts of §5.2 hold (see Variant.TargetMemory).
package models

import (
	"fmt"
	"math"
	"time"

	"pesto/internal/graph"
)

// Hardware-model constants for op-cost estimation.
const (
	matmulFlops   = 12e12 // effective matmul throughput, FLOP/s
	memBandwidth  = 9e11  // effective memory bandwidth, B/s
	launchLatency = 4 * time.Microsecond
	smallLatency  = 2 * time.Microsecond
	bytesPerElem  = 4
)

// matmulCost models a batched (b×m×k)·(k×n) matrix multiplication.
func matmulCost(b, m, k, n int) time.Duration {
	flops := 2 * float64(b) * float64(m) * float64(k) * float64(n)
	return launchLatency + time.Duration(flops/matmulFlops*1e9)
}

// elemwiseCost models an elementwise op over n elements.
func elemwiseCost(n int) time.Duration {
	bytes := 3 * float64(n) * bytesPerElem // read×2 + write
	return smallLatency + time.Duration(bytes/memBandwidth*1e9)
}

// tensorBytes is the wire size of an n-element fp32 tensor.
func tensorBytes(n int) int64 { return int64(n) * bytesPerElem }

// builder accumulates a graph, deferring error checks to Finish so
// generator code stays linear.
type builder struct {
	g   *graph.Graph
	err error
}

func newBuilder(hint int) *builder {
	return &builder{g: graph.New(hint)}
}

// op adds a node and returns its ID.
func (b *builder) op(n graph.Node) graph.NodeID {
	if n.Layer == 0 {
		n.Layer = -1
	}
	return b.g.AddNode(n)
}

// gpu adds a GPU compute op.
func (b *builder) gpu(name string, layer int, cost time.Duration, mem int64) graph.NodeID {
	return b.g.AddNode(graph.Node{Name: name, Kind: graph.KindGPU, Cost: cost, Memory: mem, Layer: layer})
}

// gpuBranch adds a GPU op tagged with a parallel-branch index.
func (b *builder) gpuBranch(name string, layer, branch int, cost time.Duration, mem int64) graph.NodeID {
	return b.g.AddNode(graph.Node{Name: name, Kind: graph.KindGPU, Cost: cost, Memory: mem, Layer: layer, Branch: branch})
}

// cpu adds a CPU op.
func (b *builder) cpu(name string, layer int, cost time.Duration) graph.NodeID {
	return b.g.AddNode(graph.Node{Name: name, Kind: graph.KindCPU, Cost: cost, Layer: layer})
}

// kernel adds a small CPU-side kernel-launch op (§3.2.1's O_K).
func (b *builder) kernel(name string, layer int) graph.NodeID {
	return b.g.AddNode(graph.Node{Name: name, Kind: graph.KindKernel, Cost: time.Microsecond, Layer: layer})
}

// edge records a data dependency.
func (b *builder) edge(from, to graph.NodeID, bytes int64) {
	if b.err != nil {
		return
	}
	if err := b.g.AddEdge(from, to, bytes); err != nil {
		b.err = err
	}
}

// dep records a control dependency (no data).
func (b *builder) dep(from, to graph.NodeID) { b.edge(from, to, 0) }

// finish validates and returns the graph.
func (b *builder) finish(name string) (*graph.Graph, error) {
	if b.err != nil {
		return nil, fmt.Errorf("build %s: %w", name, b.err)
	}
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	return b.g, nil
}

// scaleMemory rescales all node memory footprints so their sum equals
// target — the per-variant calibration that reproduces the paper's
// fits/doesn't-fit facts without modelling TensorFlow's allocator.
func scaleMemory(g *graph.Graph, target int64) {
	if target <= 0 {
		return
	}
	total := g.TotalMemory()
	if total <= 0 {
		return
	}
	f := float64(target) / float64(total)
	for id := range graph.NodeID(g.NumNodes()) {
		nd, _ := g.Node(id)
		_ = g.SetMemory(id, int64(math.Round(float64(nd.Memory)*f)))
	}
}
