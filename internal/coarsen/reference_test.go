package coarsen

import (
	"fmt"
	"sort"
	"time"

	"pesto/internal/graph"
)

// referenceCoarsen is Coarsen as it was before contraction moved in
// place: every batch, and every single Theorem 3.2 merge, rebuilds the
// whole graph through refApplyMerges. It is kept as the differential
// twin the in-place implementation must match exactly.
func referenceCoarsen(g *graph.Graph, opts Options) (*Result, error) {
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
		pairs, err := refBatchMatching(cur, cur.NumNodes()-opts.Target, opts)
		if err != nil {
			return nil, err
		}
		if len(pairs) == 0 {
			pairs, err = refSequentialMatching(cur, min(seqBudget, cur.NumNodes()-opts.Target), opts)
			if err != nil {
				return nil, err
			}
		}
		if len(pairs) == 0 {
			// Last resort: exact one-at-a-time Theorem 3.2 merges with
			// per-merge unique-path re-verification. O(|V|+|E|) per
			// merge, but only reached on small, dense residual graphs.
			before := cur.NumNodes()
			cur, members, err = refExactMerges(cur, members, min(seqBudget, cur.NumNodes()-opts.Target), opts)
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
		cur, members, err = refApplyMerges(cur, members, pairs)
		if err != nil {
			return nil, err
		}
		if err := cur.Validate(); err != nil {
			return nil, fmt.Errorf("coarsening produced invalid graph (iteration %d): %w", iterations, err)
		}
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

// refMergePair identifies an edge (U, V) selected for contraction.
type refMergePair struct {
	U, V graph.NodeID
}

// mergeable reports whether two nodes may share a coarse vertex: device
// kinds must match, colocation groups must be equal or one empty, and
// the combined blob must stay under the parallelizability caps.
func refMergeable(a, b graph.Node, opts Options) bool {
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
func refBatchMatching(g *graph.Graph, maxPairs int, opts Options) ([]refMergePair, error) {
	if maxPairs <= 0 {
		return nil, nil
	}
	h, err := refHeights(g)
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
		if !refMergeable(nu, nv, opts) {
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
	var pairs []refMergePair
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
		pairs = append(pairs, refMergePair{U: u, V: v})
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
func refSequentialMatching(g *graph.Graph, budget int, opts Options) ([]refMergePair, error) {
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
	var pairs []refMergePair
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
		if !refMergeable(nu, nv, opts) {
			continue
		}
		pairs = append(pairs, refMergePair{U: u, V: v})
		matched[u], matched[v] = true, true
	}
	return pairs, nil
}

// exactMerges contracts up to budget edges one at a time, re-verifying
// the exact Theorem 3.2 unique-path condition against the current graph
// before every merge. Edges are tried in decreasing communication size.
func refExactMerges(g *graph.Graph, members [][]graph.NodeID, budget int, opts Options) (*graph.Graph, [][]graph.NodeID, error) {
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
			if !refMergeable(nu, nv, opts) {
				continue
			}
			unique, err := refUniquePath(g, e.From, e.To)
			if err != nil {
				return nil, nil, err
			}
			if !unique {
				continue
			}
			g, members, err = refApplyMerges(g, members, []refMergePair{{U: e.From, V: e.To}})
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
func refApplyMerges(g *graph.Graph, members [][]graph.NodeID, pairs []refMergePair) (*graph.Graph, [][]graph.NodeID, error) {
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

// refHeights computes H(v) for every vertex per Definition 3.4 of the
// paper: the longest distance, counted in vertices, from any root to v;
// roots have height 1. It uses the batched variant of Kahn's algorithm
// (remove the whole zero-indegree frontier per step), in O(|V|+|E|).
func refHeights(g *graph.Graph) ([]int, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for i := range indeg {
		indeg[i] = g.InDegree(graph.NodeID(i))
	}
	h := make([]int, n)
	frontier := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, graph.NodeID(i))
			h[i] = 1
		}
	}
	visited := 0
	for len(frontier) > 0 {
		visited += len(frontier)
		var next []graph.NodeID
		for _, v := range frontier {
			for _, e := range g.Succ(v) {
				if h[v]+1 > h[e.To] {
					h[e.To] = h[v] + 1
				}
				indeg[e.To]--
				if indeg[e.To] == 0 {
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	if visited != n {
		return nil, fmt.Errorf("height computation visited %d of %d nodes: %w", visited, n, graph.ErrCycle)
	}
	return h, nil
}

// refUniquePath reports whether the edge (u, v) is the only path from u
// to v, the condition of Theorem 3.2. The edge (u, v) must exist.
func refUniquePath(g *graph.Graph, u, v graph.NodeID) (bool, error) {
	if _, ok := g.EdgeBetween(u, v); !ok {
		return false, fmt.Errorf("unique path test: no edge (%d,%d)", u, v)
	}
	// Remove the edge (u,v) and test reachability.
	seen := make([]bool, g.NumNodes())
	var stack []graph.NodeID
	for _, e := range g.Succ(u) {
		if e.To == v {
			continue // skip the direct edge
		}
		if !seen[e.To] {
			seen[e.To] = true
			stack = append(stack, e.To)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			return false, nil
		}
		for _, e := range g.Succ(x) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return true, nil
}
