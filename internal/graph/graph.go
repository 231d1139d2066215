// Package graph implements the directed-acyclic computation graphs that
// Pesto places and schedules. A Graph mirrors what TensorFlow's tf.Graph
// exposes to a placement algorithm: operations carrying a compute-time
// estimate, a device affinity (CPU, GPU, or Kernel), a memory footprint,
// and an optional colocation group; and edges carrying the number of bytes
// the upstream operation's output tensor occupies on the wire.
//
// The package provides the graph algorithms Pesto's coarsening and
// scheduling layers rely on: Kahn topological sorting, the batched
// height computation of §3.3 of the paper, unique-path testing
// (Theorem 3.2), critical-path analysis, and reachability.
package graph

import (
	"errors"
	"fmt"
	"time"
)

// NodeID identifies an operation within a Graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1 in insertion order.
type NodeID int

// OpKind is the device affinity of an operation (§3.2.1 of the paper:
// O_C, O_G, O_K).
type OpKind int

const (
	// KindCPU marks operations that must execute on the CPU.
	KindCPU OpKind = iota + 1
	// KindGPU marks operations that execute on a GPU; these are the
	// operations the Pesto ILP decides placement for.
	KindGPU
	// KindKernel marks small pre-processing operations executed on the
	// CPU immediately before a GPU operation launches.
	KindKernel
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	case KindKernel:
		return "Kernel"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Node is a single compute operation in the model DAG.
type Node struct {
	ID   NodeID
	Name string
	Kind OpKind

	// Cost is the estimated compute time p_i of the operation,
	// produced by the profiler (§3.1).
	Cost time.Duration

	// Memory is the resident memory footprint in bytes (sum of input
	// and output tensor sizes, as obtained from tf.profiler in the
	// paper's implementation). Used by the memory-balance constraints.
	Memory int64

	// Coloc names a colocation group. All operations sharing a
	// non-empty Coloc value must be placed on the same device
	// (x_{i1} = x_{i2} = ... in the ILP).
	Coloc string

	// Layer is the model-level layer index the operation belongs to,
	// or -1 when unknown. The Expert baseline partitions by Layer.
	Layer int

	// Branch is the parallel-branch index within the layer (NASNet
	// cells), or -1/0 when the operation belongs to no specific branch.
	// The branch-splitting Expert strategy partitions by Branch.
	Branch int
}

// Edge is a precedence constraint (i, j): j may start only after i has
// completed and i's output tensor has been transferred to j's device.
type Edge struct {
	From, To NodeID
	// Bytes is the size of the tensor transferred along this edge.
	Bytes int64
}

// Graph is a mutable DAG of operations. The zero value is not usable;
// construct graphs with New.
//
// Acyclicity is not enforced on every AddEdge (that would be quadratic);
// call Validate or TopoSort to check, as the construction code in
// internal/models and internal/coarsen does.
type Graph struct {
	nodes []Node
	succ  [][]Edge // succ[i] = outgoing edges of node i
	pred  [][]Edge // pred[i] = incoming edges of node i
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		succ:  make([][]Edge, 0, n),
		pred:  make([][]Edge, 0, n),
	}
}

// Errors reported by graph construction and validation.
var (
	ErrCycle       = errors.New("graph contains a cycle")
	ErrUnknownNode = errors.New("unknown node id")
	ErrSelfLoop    = errors.New("self loop")
	ErrDupEdge     = errors.New("duplicate edge")
	ErrUnknownEdge = errors.New("unknown edge")
)

// AddNode appends an operation and returns its assigned ID. The ID field
// of the argument is ignored and overwritten.
func (g *Graph) AddNode(n Node) NodeID {
	id := NodeID(len(g.nodes))
	n.ID = id
	g.nodes = append(g.nodes, n)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge inserts the precedence edge (from, to) carrying bytes of tensor
// data. It rejects self loops, unknown endpoints and duplicate edges.
func (g *Graph) AddEdge(from, to NodeID, bytes int64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("edge (%d,%d): %w", from, to, ErrUnknownNode)
	}
	if from == to {
		return fmt.Errorf("edge (%d,%d): %w", from, to, ErrSelfLoop)
	}
	for _, e := range g.succ[from] {
		if e.To == to {
			return fmt.Errorf("edge (%d,%d): %w", from, to, ErrDupEdge)
		}
	}
	e := Edge{From: from, To: to, Bytes: bytes}
	g.succ[from] = append(g.succ[from], e)
	g.pred[to] = append(g.pred[to], e)
	return nil
}

func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

// NumNodes reports the number of operations in the graph.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of precedence edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.succ {
		n += len(es)
	}
	return n
}

// Node returns the operation with the given ID. The second result is
// false when the ID is out of range.
func (g *Graph) Node(id NodeID) (Node, bool) {
	if !g.valid(id) {
		return Node{}, false
	}
	return g.nodes[id], true
}

// SetCost overwrites the compute-time estimate of a node. The profiler
// uses this to attach measured times to a structural graph.
func (g *Graph) SetCost(id NodeID, cost time.Duration) error {
	if !g.valid(id) {
		return fmt.Errorf("set cost of %d: %w", id, ErrUnknownNode)
	}
	g.nodes[id].Cost = cost
	return nil
}

// SetMemory overwrites the memory footprint of a node. Model generators
// use this to calibrate total footprints against device capacities.
func (g *Graph) SetMemory(id NodeID, mem int64) error {
	if !g.valid(id) {
		return fmt.Errorf("set memory of %d: %w", id, ErrUnknownNode)
	}
	g.nodes[id].Memory = mem
	return nil
}

// SetColoc overwrites the colocation group of a node (empty clears it).
// The random-DAG generator uses this to bind operations into groups
// after the structural wiring is done.
func (g *Graph) SetColoc(id NodeID, group string) error {
	if !g.valid(id) {
		return fmt.Errorf("set coloc of %d: %w", id, ErrUnknownNode)
	}
	g.nodes[id].Coloc = group
	return nil
}

// Nodes returns a copy of the node slice in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Succ returns the outgoing edges of id. The slice is a read-only view
// of the graph's adjacency, valid until the graph is next mutated:
// callers must not write through it, and must copy it before mutating
// the graph or keeping it past a mutation. Its capacity is clipped, so
// appending to it copies instead of touching the graph.
func (g *Graph) Succ(id NodeID) []Edge {
	if !g.valid(id) {
		return nil
	}
	s := g.succ[id]
	return s[:len(s):len(s)]
}

// Pred returns the incoming edges of id, as a read-only view with the
// same rules as Succ.
func (g *Graph) Pred(id NodeID) []Edge {
	if !g.valid(id) {
		return nil
	}
	p := g.pred[id]
	return p[:len(p):len(p)]
}

// OutDegree reports |succ(id)|.
func (g *Graph) OutDegree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return len(g.succ[id])
}

// InDegree reports |prec(id)|.
func (g *Graph) InDegree(id NodeID) int {
	if !g.valid(id) {
		return 0
	}
	return len(g.pred[id])
}

// Edges returns all edges of the graph, grouped by source node in ID
// order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for _, es := range g.succ {
		out = append(out, es...)
	}
	return out
}

// EdgeBetween returns the edge (from, to) if it exists.
func (g *Graph) EdgeBetween(from, to NodeID) (Edge, bool) {
	if !g.valid(from) {
		return Edge{}, false
	}
	for _, e := range g.succ[from] {
		if e.To == to {
			return e, true
		}
	}
	return Edge{}, false
}

// SetEdgeBytes overwrites the tensor size of an existing edge. The
// incremental edit machinery uses this to reweight communication
// without rebuilding the graph.
func (g *Graph) SetEdgeBytes(from, to NodeID, bytes int64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("edge (%d,%d): %w", from, to, ErrUnknownNode)
	}
	found := false
	for i := range g.succ[from] {
		if g.succ[from][i].To == to {
			g.succ[from][i].Bytes = bytes
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("edge (%d,%d): %w", from, to, ErrUnknownEdge)
	}
	for i := range g.pred[to] {
		if g.pred[to][i].From == from {
			g.pred[to][i].Bytes = bytes
			break
		}
	}
	return nil
}

// RemoveEdge deletes the precedence edge (from, to). Removing an edge
// can never introduce a cycle, so no revalidation is needed.
func (g *Graph) RemoveEdge(from, to NodeID) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("edge (%d,%d): %w", from, to, ErrUnknownNode)
	}
	found := false
	for i, e := range g.succ[from] {
		if e.To == to {
			g.succ[from] = append(g.succ[from][:i], g.succ[from][i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("edge (%d,%d): %w", from, to, ErrUnknownEdge)
	}
	for i, e := range g.pred[to] {
		if e.From == from {
			g.pred[to] = append(g.pred[to][:i], g.pred[to][i+1:]...)
			break
		}
	}
	return nil
}

// Leaves returns the IDs of nodes without successors.
func (g *Graph) Leaves() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.succ[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(len(g.nodes))
	c.nodes = append(c.nodes, g.nodes...)
	c.succ = make([][]Edge, len(g.succ))
	c.pred = make([][]Edge, len(g.pred))
	for i := range g.succ {
		if len(g.succ[i]) > 0 {
			c.succ[i] = append([]Edge(nil), g.succ[i]...)
		}
		if len(g.pred[i]) > 0 {
			c.pred[i] = append([]Edge(nil), g.pred[i]...)
		}
	}
	return c
}

// TotalCost sums the compute times of all operations. It is a trivial
// lower bound on single-device makespan.
func (g *Graph) TotalCost() time.Duration {
	var t time.Duration
	for i := range g.nodes {
		t += g.nodes[i].Cost
	}
	return t
}

// TotalMemory sums the memory footprints of all operations.
func (g *Graph) TotalMemory() int64 {
	var m int64
	for i := range g.nodes {
		m += g.nodes[i].Memory
	}
	return m
}

// Validate checks structural invariants: edge endpoints exist, pred/succ
// are mirror images, and the graph is acyclic.
func (g *Graph) Validate() error {
	for i, es := range g.succ {
		for _, e := range es {
			if e.From != NodeID(i) {
				return fmt.Errorf("succ[%d] holds edge from %d", i, e.From)
			}
			if !g.valid(e.To) {
				return fmt.Errorf("edge (%d,%d): %w", e.From, e.To, ErrUnknownNode)
			}
			found := false
			for _, p := range g.pred[e.To] {
				if p.From == e.From {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("edge (%d,%d) missing from pred index", e.From, e.To)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}
