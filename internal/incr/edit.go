// Package incr implements incremental placement support for evolving
// graphs: a typed edit language over computation DAGs, structural
// diffing between graph versions (with a node map that survives
// insertions and deletions), and the dirty-region closure that decides
// which coarsen groups a warm re-place must re-solve.
//
// The package sits below internal/placement (which consumes diffs to
// reuse a prior plan as a partial assignment) and below
// internal/service (which parses edit lists off the wire for
// POST /v1/place/delta). Everything here is deterministic: applying
// the same edit list to the same graph yields a byte-identical result.
package incr

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"time"

	"pesto/internal/graph"
	"pesto/internal/jsonlex"
)

// Edit kinds. An Edit is a single structural change to a graph; a
// slice of them is an edit trace, applied in order.
const (
	// KindInsert adds one GPU operation wired below Preds and above
	// Succs.
	KindInsert = "insert"
	// KindDelete removes one operation, bridging each of its
	// predecessors to each of its successors.
	KindDelete = "delete"
	// KindReweight overwrites an operation's compute cost and/or
	// memory footprint.
	KindReweight = "reweight"
	// KindReweightEdge overwrites the tensor size of one edge.
	KindReweightEdge = "reweight-edge"
	// KindRewire moves the edge (From, To) to originate at NewFrom.
	KindRewire = "rewire"
	// KindGrowLayer appends Width new GPU operations fed by the
	// current leaves of the graph — the "model grew a layer" edit.
	KindGrowLayer = "grow-layer"
)

// Edit is one structural change. Which fields are meaningful depends
// on Kind; Apply validates per kind and rejects anything else. The
// JSON form is the wire schema of POST /v1/place/delta.
type Edit struct {
	Kind string `json:"kind"`
	// Node names the target operation of delete and reweight.
	Node int `json:"node,omitempty"`
	// From and To name the target edge of reweight-edge and rewire.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// NewFrom is the new source of a rewired edge.
	NewFrom int `json:"newFrom,omitempty"`
	// Preds and Succs wire an inserted operation into the graph.
	Preds []int `json:"preds,omitempty"`
	Succs []int `json:"succs,omitempty"`
	// CostNs is the compute cost of inserted/grown operations, or the
	// new cost of a reweighted one (0 leaves cost unchanged).
	CostNs int64 `json:"costNs,omitempty"`
	// Memory is the footprint of inserted/grown operations, or the
	// new footprint of a reweighted one (0 leaves memory unchanged).
	Memory int64 `json:"memory,omitempty"`
	// Bytes is the tensor size on edges this edit creates or reweights.
	Bytes int64 `json:"bytes,omitempty"`
	// Width is the number of operations grow-layer appends.
	Width int `json:"width,omitempty"`
}

// Errors reported by edit application and parsing.
var (
	// ErrBadEdit marks an edit that cannot apply to the given graph:
	// unknown kind, missing target, or a change that would break the
	// DAG invariants (cycle, duplicate edge).
	ErrBadEdit = errors.New("bad edit")
)

// Caps keep fuzzed edit lists from allocating unboundedly.
const (
	maxEditFanout = 4096
	maxGrowWidth  = 1024
	maxEditCount  = 10000
)

// Apply applies one edit to g and returns the edited graph plus the
// node map from edited-graph IDs to g's IDs (-1 for operations the
// edit created). g is never modified. The returned graph is always
// structurally valid (acyclic, mirror-indexed) when err is nil.
func Apply(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	switch e.Kind {
	case KindInsert:
		return applyInsert(g, e)
	case KindDelete:
		return applyDelete(g, e)
	case KindReweight:
		return applyReweight(g, e)
	case KindReweightEdge:
		return applyReweightEdge(g, e)
	case KindRewire:
		return applyRewire(g, e)
	case KindGrowLayer:
		return applyGrowLayer(g, e)
	default:
		return nil, nil, fmt.Errorf("kind %q: %w", e.Kind, ErrBadEdit)
	}
}

// ApplyAll applies an edit trace in order and returns the final graph
// plus the composed node map (final-graph IDs to g's IDs, -1 for
// operations the trace created). An error on any step aborts the
// whole application.
func ApplyAll(g *graph.Graph, edits []Edit) (*graph.Graph, []graph.NodeID, error) {
	if len(edits) > maxEditCount {
		return nil, nil, fmt.Errorf("%d edits over cap %d: %w", len(edits), maxEditCount, ErrBadEdit)
	}
	cur := g
	acc := identityMap(g.NumNodes())
	for i, e := range edits {
		next, m, err := Apply(cur, e)
		if err != nil {
			return nil, nil, fmt.Errorf("edit %d: %w", i, err)
		}
		acc = composeMaps(acc, m)
		cur = next
	}
	return cur, acc, nil
}

// identityMap returns the node map of "no edit": every ID maps to
// itself.
func identityMap(n int) []graph.NodeID {
	m := make([]graph.NodeID, n)
	for i := range m {
		m[i] = graph.NodeID(i)
	}
	return m
}

// composeMaps chains prev (mid→base) with next (new→mid) into
// new→base. A -1 anywhere stays -1.
func composeMaps(prev, next []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, len(next))
	for i, mid := range next {
		if mid < 0 || int(mid) >= len(prev) {
			out[i] = -1
			continue
		}
		out[i] = prev[mid]
	}
	return out
}

func applyInsert(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	if len(e.Preds) > maxEditFanout || len(e.Succs) > maxEditFanout {
		return nil, nil, fmt.Errorf("insert fanout over cap %d: %w", maxEditFanout, ErrBadEdit)
	}
	preds, err := uniqueIDs(g, e.Preds)
	if err != nil {
		return nil, nil, fmt.Errorf("insert preds: %w", err)
	}
	succs, err := uniqueIDs(g, e.Succs)
	if err != nil {
		return nil, nil, fmt.Errorf("insert succs: %w", err)
	}
	inPreds := make(map[graph.NodeID]bool, len(preds))
	for _, p := range preds {
		inPreds[p] = true
	}
	for _, s := range succs {
		if inPreds[s] {
			return nil, nil, fmt.Errorf("insert: node %d is both pred and succ: %w", s, ErrBadEdit)
		}
	}
	// Adding pred→new→succ creates a cycle exactly when some succ
	// already reaches some pred.
	for _, s := range succs {
		for _, p := range preds {
			if g.Reachable(s, p) {
				return nil, nil, fmt.Errorf("insert: succ %d reaches pred %d: %w", s, p, ErrBadEdit)
			}
		}
	}
	out := g.Clone()
	layer := -1
	for _, p := range preds {
		if n, ok := out.Node(p); ok && n.Layer >= layer {
			layer = n.Layer + 1
		}
	}
	id := out.AddNode(graph.Node{
		Name:   fmt.Sprintf("incr/insert%d", g.NumNodes()),
		Kind:   graph.KindGPU,
		Cost:   time.Duration(max64(e.CostNs, 0)),
		Memory: max64(e.Memory, 0),
		Layer:  layer,
	})
	for _, p := range preds {
		if err := out.AddEdge(p, id, max64(e.Bytes, 0)); err != nil {
			return nil, nil, fmt.Errorf("insert: %v: %w", err, ErrBadEdit)
		}
	}
	for _, s := range succs {
		if err := out.AddEdge(id, s, max64(e.Bytes, 0)); err != nil {
			return nil, nil, fmt.Errorf("insert: %v: %w", err, ErrBadEdit)
		}
	}
	return out, identityMapPlusNew(g.NumNodes(), 1), nil
}

func applyDelete(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	d := graph.NodeID(e.Node)
	if _, ok := g.Node(d); !ok {
		return nil, nil, fmt.Errorf("delete node %d: %w", e.Node, ErrBadEdit)
	}
	if g.NumNodes() == 1 {
		return nil, nil, fmt.Errorf("delete: graph would become empty: %w", ErrBadEdit)
	}
	n := g.NumNodes()
	out := graph.New(n - 1)
	m := make([]graph.NodeID, 0, n-1)
	// oldToNew[old] is the surviving node's new ID, or -1 for d.
	oldToNew := make([]graph.NodeID, n)
	for old := 0; old < n; old++ {
		if graph.NodeID(old) == d {
			oldToNew[old] = -1
			continue
		}
		node, _ := g.Node(graph.NodeID(old))
		oldToNew[old] = out.AddNode(node)
		m = append(m, graph.NodeID(old))
	}
	for _, e := range g.Edges() {
		if e.From == d || e.To == d {
			continue
		}
		if err := out.AddEdge(oldToNew[e.From], oldToNew[e.To], e.Bytes); err != nil {
			return nil, nil, fmt.Errorf("delete: %v: %w", err, ErrBadEdit)
		}
	}
	// Bridge the hole so precedence through d survives: every pred of
	// d must still finish before every succ of d starts. The bridged
	// edge carries the tensor that formerly flowed out of d.
	for _, pe := range g.Pred(d) {
		for _, se := range g.Succ(d) {
			from, to := oldToNew[pe.From], oldToNew[se.To]
			if from == to {
				continue
			}
			if _, exists := out.EdgeBetween(from, to); exists {
				continue
			}
			if err := out.AddEdge(from, to, se.Bytes); err != nil {
				return nil, nil, fmt.Errorf("delete bridge: %v: %w", err, ErrBadEdit)
			}
		}
	}
	return out, m, nil
}

func applyReweight(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	id := graph.NodeID(e.Node)
	if _, ok := g.Node(id); !ok {
		return nil, nil, fmt.Errorf("reweight node %d: %w", e.Node, ErrBadEdit)
	}
	if e.CostNs <= 0 && e.Memory <= 0 {
		return nil, nil, fmt.Errorf("reweight: no change specified: %w", ErrBadEdit)
	}
	out := g.Clone()
	if e.CostNs > 0 {
		if err := out.SetCost(id, time.Duration(e.CostNs)); err != nil {
			return nil, nil, fmt.Errorf("reweight: %v: %w", err, ErrBadEdit)
		}
	}
	if e.Memory > 0 {
		if err := out.SetMemory(id, e.Memory); err != nil {
			return nil, nil, fmt.Errorf("reweight: %v: %w", err, ErrBadEdit)
		}
	}
	return out, identityMap(g.NumNodes()), nil
}

func applyReweightEdge(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	if e.Bytes < 0 {
		return nil, nil, fmt.Errorf("reweight-edge: negative bytes: %w", ErrBadEdit)
	}
	out := g.Clone()
	if err := out.SetEdgeBytes(graph.NodeID(e.From), graph.NodeID(e.To), e.Bytes); err != nil {
		return nil, nil, fmt.Errorf("reweight-edge: %v: %w", err, ErrBadEdit)
	}
	return out, identityMap(g.NumNodes()), nil
}

func applyRewire(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	from, to, nf := graph.NodeID(e.From), graph.NodeID(e.To), graph.NodeID(e.NewFrom)
	old, ok := g.EdgeBetween(from, to)
	if !ok {
		return nil, nil, fmt.Errorf("rewire: edge (%d,%d) not found: %w", e.From, e.To, ErrBadEdit)
	}
	if _, ok := g.Node(nf); !ok {
		return nil, nil, fmt.Errorf("rewire: new source %d: %w", e.NewFrom, ErrBadEdit)
	}
	if nf == to || nf == from {
		return nil, nil, fmt.Errorf("rewire: new source %d equals an endpoint: %w", e.NewFrom, ErrBadEdit)
	}
	if _, exists := g.EdgeBetween(nf, to); exists {
		return nil, nil, fmt.Errorf("rewire: edge (%d,%d) already exists: %w", e.NewFrom, e.To, ErrBadEdit)
	}
	// The new edge nf→to is safe exactly when to does not already
	// reach nf.
	if g.Reachable(to, nf) {
		return nil, nil, fmt.Errorf("rewire: %d reaches %d, edge would cycle: %w", e.To, e.NewFrom, ErrBadEdit)
	}
	out := g.Clone()
	if err := out.RemoveEdge(from, to); err != nil {
		return nil, nil, fmt.Errorf("rewire: %v: %w", err, ErrBadEdit)
	}
	b := old.Bytes
	if e.Bytes > 0 {
		b = e.Bytes
	}
	if err := out.AddEdge(nf, to, b); err != nil {
		return nil, nil, fmt.Errorf("rewire: %v: %w", err, ErrBadEdit)
	}
	return out, identityMap(g.NumNodes()), nil
}

func applyGrowLayer(g *graph.Graph, e Edit) (*graph.Graph, []graph.NodeID, error) {
	if e.Width <= 0 || e.Width > maxGrowWidth {
		return nil, nil, fmt.Errorf("grow-layer width %d out of (0,%d]: %w", e.Width, maxGrowWidth, ErrBadEdit)
	}
	leaves := g.Leaves()
	if len(leaves) == 0 {
		return nil, nil, fmt.Errorf("grow-layer: graph has no leaves: %w", ErrBadEdit)
	}
	out := g.Clone()
	layer := -1
	for _, l := range leaves {
		if n, ok := g.Node(l); ok && n.Layer >= layer {
			layer = n.Layer + 1
		}
	}
	for j := 0; j < e.Width; j++ {
		id := out.AddNode(graph.Node{
			Name:   fmt.Sprintf("incr/grow%d.%d", g.NumNodes(), j),
			Kind:   graph.KindGPU,
			Cost:   time.Duration(max64(e.CostNs, 0)),
			Memory: max64(e.Memory, 0),
			Layer:  layer,
			Branch: j,
		})
		// Deterministic wiring: each grown op reads from up to two
		// round-robin leaves of the pre-edit graph.
		p1 := leaves[j%len(leaves)]
		p2 := leaves[(j+1)%len(leaves)]
		if err := out.AddEdge(p1, id, max64(e.Bytes, 0)); err != nil {
			return nil, nil, fmt.Errorf("grow-layer: %v: %w", err, ErrBadEdit)
		}
		if p2 != p1 {
			if err := out.AddEdge(p2, id, max64(e.Bytes, 0)); err != nil {
				return nil, nil, fmt.Errorf("grow-layer: %v: %w", err, ErrBadEdit)
			}
		}
	}
	return out, identityMapPlusNew(g.NumNodes(), e.Width), nil
}

// identityMapPlusNew maps the first n IDs to themselves and the
// following added IDs to -1.
func identityMapPlusNew(n, added int) []graph.NodeID {
	m := make([]graph.NodeID, n+added)
	for i := 0; i < n; i++ {
		m[i] = graph.NodeID(i)
	}
	for i := n; i < n+added; i++ {
		m[i] = -1
	}
	return m
}

func uniqueIDs(g *graph.Graph, ids []int) ([]graph.NodeID, error) {
	seen := make(map[graph.NodeID]bool, len(ids))
	out := make([]graph.NodeID, 0, len(ids))
	for _, raw := range ids {
		id := graph.NodeID(raw)
		if _, ok := g.Node(id); !ok {
			return nil, fmt.Errorf("node %d: %w", raw, ErrBadEdit)
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ParseEdits decodes a JSON edit list (the wire form of
// POST /v1/place/delta). Unknown fields, trailing data and oversized
// lists are errors; no input panics.
func ParseEdits(data []byte) ([]Edit, error) {
	var edits []Edit
	if err := jsonlex.DecodeStrict(data, &edits); err != nil {
		return nil, fmt.Errorf("decode edits: %v: %w", err, ErrBadEdit)
	}
	if len(edits) > maxEditCount {
		return nil, fmt.Errorf("%d edits over cap %d: %w", len(edits), maxEditCount, ErrBadEdit)
	}
	return edits, nil
}

// editsFingerprintVersion versions the canonical edit serialization
// below, for the same reason graph fingerprints are versioned.
const editsFingerprintVersion = "pesto/edit-list/v1\n"

// Fingerprint returns a SHA-256 content address of an edit list. The
// service folds it (together with the base graph's fingerprint) into
// delta cache keys, so equal (base, edits) pairs replay byte-identical
// responses and a delta entry can never collide with a cold one.
func Fingerprint(edits []Edit) [32]byte {
	h := sha256.New()
	h.Write([]byte(editsFingerprintVersion))
	writeEditU64(h, uint64(len(edits)))
	for _, e := range edits {
		writeEditU64(h, uint64(len(e.Kind)))
		h.Write([]byte(e.Kind))
		writeEditU64(h, uint64(int64(e.Node)))
		writeEditU64(h, uint64(int64(e.From)))
		writeEditU64(h, uint64(int64(e.To)))
		writeEditU64(h, uint64(int64(e.NewFrom)))
		writeEditU64(h, uint64(len(e.Preds)))
		for _, p := range e.Preds {
			writeEditU64(h, uint64(int64(p)))
		}
		writeEditU64(h, uint64(len(e.Succs)))
		for _, s := range e.Succs {
			writeEditU64(h, uint64(int64(s)))
		}
		writeEditU64(h, uint64(e.CostNs))
		writeEditU64(h, uint64(e.Memory))
		writeEditU64(h, uint64(e.Bytes))
		writeEditU64(h, uint64(int64(e.Width)))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func writeEditU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}
