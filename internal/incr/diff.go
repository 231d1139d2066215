package incr

import (
	"sort"

	"pesto/internal/coarsen"
	"pesto/internal/graph"
)

// Diff is the structural difference between two versions of a graph,
// expressed in the edited graph's ID space. Dirty is the set of
// edited-graph operations whose placement-relevant context changed:
// new operations, operations with changed fields, operations with a
// changed incident edge, and the surviving neighbors of removed
// operations. Every other operation is guaranteed untouched — its
// node fields and its full incident edge multiset are equal in both
// versions — which is the contract incremental placement reuses.
type Diff struct {
	// Dirty lists the affected edited-graph IDs, sorted ascending.
	Dirty []graph.NodeID
	// Node- and edge-level tallies, for provenance and metrics.
	AddedNodes   int
	RemovedNodes int
	ChangedNodes int
	AddedEdges   int
	RemovedEdges int
	ChangedEdges int
}

// Compare diffs base against edited under nodeMap, which maps each
// edited-graph ID to its base-graph ID (-1 for operations that did not
// exist in base). A nil nodeMap means positional identity: ID i is the
// same operation in both graphs. Entries out of base's range are
// treated as -1, and a base ID claimed by two edited IDs keeps only
// the first claim — so Compare accepts arbitrary (even adversarial)
// inputs without panicking, the FuzzGraphDiff contract.
//
// Compare(g, g, nil) is always empty.
func Compare(base, edited *graph.Graph, nodeMap []graph.NodeID) Diff {
	n := edited.NumNodes()
	nb := base.NumNodes()
	// Normalize the map: m[i] is a valid base ID or -1.
	m := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		switch {
		case nodeMap == nil:
			if i < nb {
				m[i] = graph.NodeID(i)
			} else {
				m[i] = -1
			}
		case i < len(nodeMap) && nodeMap[i] >= 0 && int(nodeMap[i]) < nb:
			m[i] = nodeMap[i]
		default:
			m[i] = -1
		}
	}
	// Invert, dropping duplicate claims on the same base ID.
	inv := make([]graph.NodeID, nb)
	for i := range inv {
		inv[i] = -1
	}
	for i := 0; i < n; i++ {
		if m[i] >= 0 {
			if inv[m[i]] >= 0 {
				m[i] = -1
				continue
			}
			inv[m[i]] = graph.NodeID(i)
		}
	}

	var d Diff
	dirty := make([]bool, n)
	mark := func(id graph.NodeID) {
		if id >= 0 && int(id) < n {
			dirty[id] = true
		}
	}

	for i := 0; i < n; i++ {
		if m[i] < 0 {
			d.AddedNodes++
			dirty[i] = true
			continue
		}
		en, _ := edited.Node(graph.NodeID(i))
		bn, _ := base.Node(m[i])
		if en.Kind != bn.Kind || en.Cost != bn.Cost || en.Memory != bn.Memory ||
			en.Coloc != bn.Coloc || en.Layer != bn.Layer || en.Branch != bn.Branch {
			d.ChangedNodes++
			dirty[i] = true
		}
	}

	// Forward pass: every edited edge must exist, byte-identical,
	// between the mapped endpoints in base.
	for _, e := range edited.Edges() {
		mu, mv := m[e.From], m[e.To]
		if mu < 0 || mv < 0 {
			d.AddedEdges++
			mark(e.From)
			mark(e.To)
			continue
		}
		be, ok := base.EdgeBetween(mu, mv)
		switch {
		case !ok:
			d.AddedEdges++
			mark(e.From)
			mark(e.To)
		case be.Bytes != e.Bytes:
			d.ChangedEdges++
			mark(e.From)
			mark(e.To)
		}
	}

	// Backward pass: base edges with no surviving counterpart dirty
	// their surviving endpoints; fully removed nodes dirty their
	// surviving neighbors.
	for _, e := range base.Edges() {
		iu, iv := inv[e.From], inv[e.To]
		if iu < 0 || iv < 0 {
			// At least one endpoint was removed; the edge is gone.
			// The surviving endpoint (if any) is dirtied by the
			// removed-node pass below.
			d.RemovedEdges++
			continue
		}
		if _, ok := edited.EdgeBetween(iu, iv); !ok {
			d.RemovedEdges++
			mark(iu)
			mark(iv)
		}
		// Byte changes were already counted in the forward pass.
	}
	for b := 0; b < nb; b++ {
		if inv[b] >= 0 {
			continue
		}
		d.RemovedNodes++
		for _, e := range base.Pred(graph.NodeID(b)) {
			mark(inv[e.From])
		}
		for _, e := range base.Succ(graph.NodeID(b)) {
			mark(inv[e.To])
		}
	}

	for i := 0; i < n; i++ {
		if dirty[i] {
			d.Dirty = append(d.Dirty, graph.NodeID(i))
		}
	}
	return d
}

// DirtyGroups computes the dirty-region closure over a coarsening of
// the edited graph: the coarse groups containing a dirty operation,
// plus — one step out — every coarse-graph neighbor of a dirty group
// that contains a critical-path operation. The closure rule follows
// Mayer et al.'s observation that solve effort only matters on or
// near the critical path: a clean group far from both the edit and
// the critical path keeps its prior device with no quality risk,
// while a critical-path group adjacent to the edit is re-solved even
// though its own content is unchanged (the edit may have shifted work
// it must absorb).
//
// The result is a sorted list of coarse node IDs of res.Coarse.
func DirtyGroups(g *graph.Graph, res *coarsen.Result, dirty []graph.NodeID) []graph.NodeID {
	dirtyGroup := make(map[graph.NodeID]bool)
	for _, op := range dirty {
		if op >= 0 && int(op) < len(res.CoarseOf) {
			dirtyGroup[res.CoarseOf[op]] = true
		}
	}
	// Critical-path groups of the edited graph. A cyclic graph cannot
	// reach here through Apply, but guard anyway: no closure is added
	// when the critical path is unavailable.
	if _, cp, err := g.CriticalPath(); err == nil {
		cpGroup := make(map[graph.NodeID]bool)
		for _, op := range cp {
			if op >= 0 && int(op) < len(res.CoarseOf) {
				cpGroup[res.CoarseOf[op]] = true
			}
		}
		adj := make(map[graph.NodeID]bool)
		for c := range dirtyGroup {
			for _, e := range res.Coarse.Succ(c) {
				if cpGroup[e.To] {
					adj[e.To] = true
				}
			}
			for _, e := range res.Coarse.Pred(c) {
				if cpGroup[e.From] {
					adj[e.From] = true
				}
			}
		}
		for c := range adj {
			dirtyGroup[c] = true
		}
	}
	out := make([]graph.NodeID, 0, len(dirtyGroup))
	for c := range dirtyGroup {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
