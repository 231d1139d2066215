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
// Merges contract in place. Each Coarsen call keeps one contraction
// state with a slot per original node ID; a merged pair (u, v) lives on
// in u's slot and v's slot dies. Slots keep their successor and
// predecessor arcs sorted by slot, with the bytes of parallel original
// edges summed. Numbering the survivors of a batch in ascending slot
// order yields exactly the dense IDs a rebuilt graph would assign, so
// every ID comparison and tie-break sees the same order a rebuild would,
// and Result.Coarse is built once, at the end, from the live slots.
//
// Acyclicity is re-verified after every iteration as defense in depth:
// the height pass over the live arcs that the next batch needs doubles
// as the check.
package coarsen

import (
	"cmp"
	"fmt"
	"slices"
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

// Coarsen reduces g to at most opts.Target vertices. The input graph is
// not modified.
func Coarsen(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("coarsen input: %w", err)
	}
	if g.NumNodes() <= opts.Target {
		return identity(g, 0), nil
	}
	if opts.MaxNodeCost <= 0 {
		opts.MaxNodeCost = 4 * g.TotalCost() / time.Duration(opts.Target)
	}
	if opts.MaxNodeMemory <= 0 {
		opts.MaxNodeMemory = 4 * g.TotalMemory() / int64(opts.Target)
	}
	s := newState(g)
	if err := s.heights(); err != nil {
		return nil, err
	}
	iterations := 0
	for s.live > opts.Target && iterations < maxIters {
		iterations++
		pairs := s.batchMatching(s.live-opts.Target, &opts)
		if len(pairs) == 0 {
			pairs = s.sequentialMatching(min(seqBudget, s.live-opts.Target), &opts)
		}
		if len(pairs) > 0 {
			s.contract(pairs)
		} else {
			// Last resort: exact one-at-a-time Theorem 3.2 merges with
			// per-merge unique-path re-verification. O(|V|+|E|) per
			// merge, but only reached on small, dense residual graphs.
			before := s.live
			s.exactMerges(min(seqBudget, s.live-opts.Target), &opts)
			if s.live == before {
				break // nothing mergeable at all
			}
		}
		if err := s.heights(); err != nil {
			return nil, fmt.Errorf("coarsening produced invalid graph (iteration %d): %w", iterations, err)
		}
	}
	if s.live == g.NumNodes() {
		return identity(g, iterations), nil
	}
	return s.result(g, iterations)
}

// identity is the Result of a coarsening that merged nothing: a copy of
// g with every node its own group.
func identity(g *graph.Graph, iterations int) *Result {
	n := g.NumNodes()
	ids := make([]graph.NodeID, n)
	members := make([][]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
		members[i] = ids[i : i+1 : i+1]
	}
	return &Result{Coarse: g.Clone(), Members: members, CoarseOf: slices.Clone(ids), Iterations: iterations}
}

// mergePair identifies an arc (U, V) selected for contraction, by slot.
type mergePair struct {
	U, V int
}

// arc is one live edge of the contraction state: the slot at its other
// end and the bytes summed over every original edge it stands for.
type arc struct {
	slot  int
	bytes int64
}

// candidate is a live arc from→to considered for contraction.
type candidate struct {
	from, to int
	bytes    int64
}

// byBytesDesc orders candidates by decreasing communication size, then
// by source and target slot.
func byBytesDesc(a, b candidate) int {
	if a.bytes != b.bytes {
		return cmp.Compare(b.bytes, a.bytes)
	}
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.to, b.to)
}

// state is the in-place contraction of one graph. Slot i starts as
// original node i; a dead slot has been merged into a live one.
type state struct {
	alive []bool
	node  []graph.Node // aggregated attributes of each live slot
	succ  [][]arc      // sorted by slot
	pred  [][]arc      // sorted by slot
	// Members form one singly linked list per live slot, threaded
	// through next (-1 ends a list), so merging two groups is O(1).
	head, tail, next []int
	live             int

	h        []int // H(v) per live slot, from the last heights pass
	rep      []int // slot a batch folds each slot into; identity between batches
	mark     []uint32
	epoch    uint32
	selU     []bool
	selV     []bool
	indeg    []int
	frontier []int
	stack    []int // uniquePath's DFS stack
	touched  []int // slots a batch rewires
	cand     []candidate
	pairs    []mergePair
}

// newState builds the contraction state of g. g must have no duplicate
// edges, which graph.AddEdge guarantees.
func newState(g *graph.Graph) *state {
	n := g.NumNodes()
	s := &state{
		alive: make([]bool, n),
		node:  slices.Clone(g.Nodes()), // merges write to it
		succ:  make([][]arc, n),
		pred:  make([][]arc, n),
		head:  make([]int, n),
		tail:  make([]int, n),
		next:  make([]int, n),
		live:  n,
		h:     make([]int, n),
		rep:   make([]int, n),
		mark:  make([]uint32, n),
		selU:  make([]bool, n),
		selV:  make([]bool, n),
		indeg: make([]int, n),
	}
	m := g.NumEdges()
	succArcs := make([]arc, 0, m)
	predArcs := make([]arc, 0, m)
	for i := 0; i < n; i++ {
		s.alive[i] = true
		s.head[i], s.tail[i], s.next[i] = i, i, -1
		s.rep[i] = i
		id := graph.NodeID(i)
		lo := len(succArcs)
		for _, e := range g.Succ(id) {
			succArcs = append(succArcs, arc{slot: int(e.To), bytes: e.Bytes})
		}
		s.succ[i] = succArcs[lo:len(succArcs):len(succArcs)]
		slices.SortFunc(s.succ[i], bySlot)
		lo = len(predArcs)
		for _, e := range g.Pred(id) {
			predArcs = append(predArcs, arc{slot: int(e.From), bytes: e.Bytes})
		}
		s.pred[i] = predArcs[lo:len(predArcs):len(predArcs)]
		slices.SortFunc(s.pred[i], bySlot)
	}
	return s
}

func bySlot(a, b arc) int { return cmp.Compare(a.slot, b.slot) }

// nextEpoch starts a fresh generation of mark stamps.
func (s *state) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
	return s.epoch
}

// heights computes H(v) for every live slot per Definition 3.4 of the
// paper: the longest distance, counted in vertices, from any root to v;
// roots have height 1. It uses the batched variant of Kahn's algorithm
// the paper describes (remove the whole zero-indegree frontier per
// step), in O(|V|+|E|), and fails with graph.ErrCycle when the live arcs
// are not acyclic.
func (s *state) heights() error {
	frontier := s.frontier[:0]
	for v, ok := range s.alive {
		if !ok {
			continue
		}
		s.h[v] = 0
		s.indeg[v] = len(s.pred[v])
		if s.indeg[v] == 0 {
			frontier = append(frontier, v)
			s.h[v] = 1
		}
	}
	// Batches are consumed front to back and their successors appended
	// behind them, so one slice holds every frontier in turn.
	for i := 0; i < len(frontier); i++ {
		v := frontier[i]
		for _, a := range s.succ[v] {
			if s.h[v]+1 > s.h[a.slot] {
				s.h[a.slot] = s.h[v] + 1
			}
			s.indeg[a.slot]--
			if s.indeg[a.slot] == 0 {
				frontier = append(frontier, a.slot)
			}
		}
	}
	s.frontier = frontier
	if len(frontier) != s.live {
		return fmt.Errorf("height computation visited %d of %d nodes: %w", len(frontier), s.live, graph.ErrCycle)
	}
	return nil
}

// mergeable reports whether two nodes may share a coarse vertex: device
// kinds must match, colocation groups must be equal or one empty, and
// the combined blob must stay under the parallelizability caps.
func mergeable(a, b *graph.Node, opts *Options) bool {
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

// arcs lists every live arc accepted by keep, in byBytesDesc order.
func (s *state) arcs(keep func(u int, a arc) bool) []candidate {
	cand := s.cand[:0]
	for u, ok := range s.alive {
		if !ok {
			continue
		}
		for _, a := range s.succ[u] {
			if keep(u, a) {
				cand = append(cand, candidate{from: u, to: a.slot, bytes: a.bytes})
			}
		}
	}
	slices.SortFunc(cand, byBytesDesc)
	s.cand = cand
	return cand
}

// batchMatching selects up to maxPairs height-tight arcs forming a
// matching with no tight cross-pair (u_i, v_j) arcs. Candidates are
// considered in decreasing communication size, the paper's priority for
// preserving parallelizability while hiding big transfers. It expects
// the heights of the current live arcs.
func (s *state) batchMatching(maxPairs int, opts *Options) []mergePair {
	cand := s.arcs(func(u int, a arc) bool {
		return s.h[a.slot] == s.h[u]+1 && mergeable(&s.node[u], &s.node[a.slot], opts)
	})
	pairs := s.pairs[:0]
	for _, c := range cand {
		if len(pairs) >= maxPairs {
			break
		}
		u, v := c.from, c.to
		// A node is matched iff it is the U or the V of a selected pair.
		if s.selU[u] || s.selV[u] || s.selU[v] || s.selV[v] {
			continue
		}
		// Interaction check (the Figure 6 guard): selecting (u,v) must
		// not coexist with a selected pair (u',v') such that a
		// height-tight arc (u, v') or (u', v) exists.
		if s.tightInto(u, v) || s.tightFrom(v, u) {
			continue
		}
		pairs = append(pairs, mergePair{U: u, V: v})
		s.selU[u], s.selV[v] = true, true
	}
	for _, p := range pairs {
		s.selU[p.U], s.selV[p.V] = false, false
	}
	s.pairs = pairs
	return pairs
}

// tightInto reports whether u has a height-tight arc to the V of a
// selected pair other than v.
func (s *state) tightInto(u, v int) bool {
	for _, a := range s.succ[u] {
		if a.slot != v && s.selV[a.slot] && s.h[a.slot] == s.h[u]+1 {
			return true
		}
	}
	return false
}

// tightFrom reports whether the U of a selected pair other than u has a
// height-tight arc to v.
func (s *state) tightFrom(v, u int) bool {
	for _, a := range s.pred[v] {
		if a.slot != u && s.selU[a.slot] && s.h[v] == s.h[a.slot]+1 {
			return true
		}
	}
	return false
}

// sequentialMatching falls back to exact Theorem 3.2 merges: it scans
// arcs by decreasing size and selects a matching of unique-path arcs.
// Because pairs are vertex-disjoint and each satisfies the unique-path
// condition on the same graph, merging them one at a time is safe only
// individually; to stay safe in a batch we additionally require the
// stronger structural guard |succ(u)| == 1 && |prec(v)| == 1 (chain
// contraction), for which disjoint simultaneous merges provably cannot
// interact: any post-merge cycle would need a second path into v or out
// of u.
func (s *state) sequentialMatching(budget int, opts *Options) []mergePair {
	if budget <= 0 {
		return nil
	}
	cand := s.arcs(func(int, arc) bool { return true })
	pairs := s.pairs[:0]
	for _, c := range cand {
		if len(pairs) >= budget {
			break
		}
		u, v := c.from, c.to
		if s.selU[u] || s.selV[u] || s.selU[v] || s.selV[v] {
			continue
		}
		if len(s.succ[u]) != 1 || len(s.pred[v]) != 1 {
			continue
		}
		if !mergeable(&s.node[u], &s.node[v], opts) {
			continue
		}
		pairs = append(pairs, mergePair{U: u, V: v})
		s.selU[u], s.selV[v] = true, true
	}
	for _, p := range pairs {
		s.selU[p.U], s.selV[p.V] = false, false
	}
	s.pairs = pairs
	return pairs
}

// exactMerges contracts up to budget arcs one at a time, re-verifying
// the exact Theorem 3.2 unique-path condition against the current state
// before every merge. Arcs are tried in decreasing communication size.
func (s *state) exactMerges(budget int, opts *Options) {
	for done := 0; done < budget; done++ {
		merged := false
		for _, c := range s.arcs(func(int, arc) bool { return true }) {
			if !mergeable(&s.node[c.from], &s.node[c.to], opts) || !s.uniquePath(c.from, c.to) {
				continue
			}
			s.pairs = append(s.pairs[:0], mergePair{U: c.from, V: c.to})
			s.contract(s.pairs)
			merged = true
			break
		}
		if !merged {
			break
		}
	}
}

// uniquePath reports whether the arc (u, v) exists and is the only path
// from u to v, the necessary and sufficient condition of Theorem 3.2
// for merging u and v without creating a cycle.
func (s *state) uniquePath(u, v int) bool {
	if _, ok := slices.BinarySearchFunc(s.succ[u], v, func(a arc, t int) int { return cmp.Compare(a.slot, t) }); !ok {
		return false
	}
	// There is another u~>v path iff v is reachable from a successor of
	// u other than v.
	ep := s.nextEpoch()
	stack := s.stack[:0]
	for _, a := range s.succ[u] {
		if a.slot != v && s.mark[a.slot] != ep {
			s.mark[a.slot] = ep
			stack = append(stack, a.slot)
		}
	}
	unique := true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			unique = false
			break
		}
		for _, a := range s.succ[x] {
			if s.mark[a.slot] != ep {
				s.mark[a.slot] = ep
				stack = append(stack, a.slot)
			}
		}
	}
	s.stack = stack
	return unique
}

// contract merges every selected pair at once: V's slot folds into U's.
// The lower of the two slots supplies the node's base attributes, the
// way a rebuild numbering nodes in ID order would. Only U and the
// neighbours of V have arcs to rewrite.
func (s *state) contract(pairs []mergePair) {
	ep := s.nextEpoch()
	touched := s.touched[:0]
	touch := func(x int) {
		if s.mark[x] != ep {
			s.mark[x] = ep
			touched = append(touched, x)
		}
	}
	for _, p := range pairs {
		u, v := p.U, p.V
		s.rep[v] = u
		touch(u)
		for _, a := range s.succ[v] {
			touch(a.slot)
		}
		for _, a := range s.pred[v] {
			touch(a.slot)
		}

		lo, hi := min(u, v), max(u, v)
		nd, other := s.node[lo], &s.node[hi]
		nd.Cost += other.Cost
		nd.Memory += other.Memory
		if nd.Coloc == "" {
			nd.Coloc = other.Coloc
		}
		if other.Layer >= 0 && (nd.Layer < 0 || other.Layer < nd.Layer) {
			nd.Layer = other.Layer
		}
		s.node[u] = nd

		s.next[s.tail[u]] = s.head[v]
		s.tail[u] = s.tail[v]
		s.succ[u] = append(s.succ[u], s.succ[v]...)
		s.pred[u] = append(s.pred[u], s.pred[v]...)
		s.succ[v], s.pred[v] = nil, nil
		s.alive[v] = false
		s.live--
	}
	for _, x := range touched {
		if s.alive[x] {
			s.succ[x] = s.fold(x, s.succ[x])
			s.pred[x] = s.fold(x, s.pred[x])
		}
	}
	for _, p := range pairs {
		s.rep[p.V] = p.V
	}
	s.touched = touched
}

// fold rewrites x's arc list after a batch: each end moves to the slot
// it was merged into, arcs inside x vanish, and arcs to the same slot
// combine with their bytes summed. The list comes back sorted by slot.
func (s *state) fold(x int, arcs []arc) []arc {
	out := arcs[:0]
	for _, a := range arcs {
		if a.slot = s.rep[a.slot]; a.slot != x {
			out = append(out, a)
		}
	}
	slices.SortFunc(out, bySlot)
	k := 0
	for i, a := range out {
		if i > 0 && a.slot == out[k-1].slot {
			out[k-1].bytes += a.bytes
			continue
		}
		out[k] = a
		k++
	}
	return out[:k]
}

// result materializes the live slots as the coarse graph: nodes in slot
// order, then edges in (from, to) order, and members in the original
// graph's topological order.
func (s *state) result(g *graph.Graph, iterations int) (*Result, error) {
	n := g.NumNodes()
	dense := make([]int, n)
	coarse := graph.New(s.live)
	coarseOf := make([]graph.NodeID, n)
	members := make([][]graph.NodeID, 0, s.live)
	flat := make([]graph.NodeID, 0, n)
	for slot, ok := range s.alive {
		if !ok {
			continue
		}
		id := coarse.AddNode(s.node[slot])
		dense[slot] = int(id)
		lo := len(flat)
		for m := s.head[slot]; m >= 0; m = s.next[m] {
			flat = append(flat, graph.NodeID(m))
			coarseOf[m] = id
		}
		members = append(members, flat[lo:len(flat):len(flat)])
	}
	for slot, ok := range s.alive {
		if !ok {
			continue
		}
		for _, a := range s.succ[slot] {
			if err := coarse.AddEdge(graph.NodeID(dense[slot]), graph.NodeID(dense[a.slot]), a.bytes); err != nil {
				return nil, fmt.Errorf("rebuild edges: %w", err)
			}
		}
	}
	// Order members topologically within the original graph.
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("order members: %w", err)
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	for _, ms := range members {
		slices.SortFunc(ms, func(a, b graph.NodeID) int { return cmp.Compare(pos[a], pos[b]) })
	}
	return &Result{Coarse: coarse, Members: members, CoarseOf: coarseOf, Iterations: iterations}, nil
}
