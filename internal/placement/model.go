// Package placement implements Pesto's core contribution (§3.2 of the
// paper): jointly optimal placement and scheduling of DNN operations on
// two GPUs plus a CPU, formulated as a 0-1 integer linear program over a
// communication-augmented DAG, solved after graph coarsening (§3.3).
//
// The pipeline is Place → (coarsen) → (augment) → (build ILP) →
// (branch & bound with a list-scheduling incumbent heuristic) →
// (extract & expand). On small instances the branch and bound proves
// optimality (the Theorem 3.1 regime); on larger ones the reported
// solution carries the remaining optimality gap.
package placement

import (
	"fmt"
	"sort"
	"time"

	"pesto/internal/graph"
	"pesto/internal/ilp"
	"pesto/internal/lp"
	"pesto/internal/sim"
)

// commKind classifies an augmentation vertex (§3.2.2 "DAG
// augmentation").
type commKind int

const (
	commGG commKind = iota + 1 // GPU→GPU: duration gated by z_k
	commCG                     // CPU→GPU: always transfers
	commGC                     // GPU→CPU: always transfers
)

// commVertex is one added vertex k with edges (i,k),(k,j) for an
// original edge (i,j).
type commVertex struct {
	kind     commKind
	from, to graph.NodeID // endpoints i, j in the coarse graph
	cost     time.Duration
}

// affine is c + Σ terms over the model's variables: a duration, or a
// disjunction's gate.
type affine struct {
	c     float64
	terms []lp.Term
}

// model is the assembled Pesto ILP for a (coarse) graph on a 2-GPU
// system, with the variable layout needed to read solutions back.
type model struct {
	g   *graph.Graph
	sys sim.System

	comms []commVertex

	// Variable indices.
	sOp   []int // start time per graph node
	sComm []int // start time per comm vertex
	cmax  int
	// xVar maps each node to its placement binary (-1 for non-GPU
	// nodes). With the group-level model (the default), every GPU node
	// in one colocation group shares a single variable, so distinct
	// entries repeat; xGroups lists each distinct placement variable
	// once, in allocation order — the model's "placement groups".
	xVar    []int
	xGroups []int
	zVar    []int // z_k per comm vertex; -1 for CG/GC (always 1)
	binary  []int

	horizon time.Duration // normalization unit
	lp      *lp.Problem
}

// The ILP's two pair caps. Dropped pairs can make the ILP's C_max
// optimistic; the realized plan is always re-validated through the
// simulator.
const (
	// nonOverlapTopK bounds the same-device non-overlap pairs, keeping
	// those with the largest combined compute time.
	nonOverlapTopK = 64
	// congestionTopK bounds the communication vertices that receive
	// pairwise congestion constraints: the largest transfers, since
	// congestion among tiny transfers is immaterial but inflates the LP
	// quadratically.
	congestionTopK = 16
)

// buildModel augments the coarse graph with communication vertices and
// assembles the constraints (1)–(9) of the Pesto ILP plus the
// non-overlapping (10), congestion (7) and memory (8) constraint groups.
func buildModel(g *graph.Graph, sys sim.System, opts Options) (*model, error) {
	gpus := sys.GPUs()
	if len(gpus) != 2 {
		return nil, fmt.Errorf("pesto ILP: need exactly 2 GPUs, system has %d: %w", len(gpus), ErrUnsupportedSystem)
	}
	m := &model{g: g, sys: sys}

	// --- DAG augmentation: one comm vertex per cross-kind-capable edge.
	// Transfer costs come from the system's pairwise model, so link
	// overrides (hierarchical topologies) are honored.
	cpu := sys.CPUID()
	nodes := g.Nodes()
	var plain []graph.Edge // edges that carry no transfer
	// colocKey is the effective colocation key of a node under the
	// group-level model; the PerOpModel ablation dissolves groups back
	// into per-op variables (and per-edge comm vertices).
	colocKey := func(i graph.NodeID) string {
		if opts.PerOpModel {
			return ""
		}
		return nodes[i].Coloc
	}
	for _, e := range g.Edges() {
		cv := commVertex{from: e.From, to: e.To}
		fGPU, tGPU := nodes[e.From].Kind == graph.KindGPU, nodes[e.To].Kind == graph.KindGPU
		switch {
		case fGPU && tGPU && (colocKey(e.From) == "" || colocKey(e.From) != colocKey(e.To)):
			cv.kind, cv.cost = commGG, sys.TransferTime(gpus[0], gpus[1], e.Bytes)
		case !fGPU && tGPU:
			cv.kind, cv.cost = commCG, sys.TransferTime(cpu, gpus[0], e.Bytes)
		case fGPU && !tGPU:
			cv.kind, cv.cost = commGC, sys.TransferTime(gpus[0], cpu, e.Bytes)
		default:
			// CPU→CPU (incl. kernel) edges, and GPU edges inside a
			// colocation group, whose endpoints can never be split, carry
			// no transfer: no comm vertex, no z, plain precedence.
			plain = append(plain, e)
			continue
		}
		m.comms = append(m.comms, cv)
	}

	// --- Device speeds (heterogeneous GPUs are supported: an
	// operation's duration becomes d0 + (d1-d0)·x_i, still linear).
	dev0, _ := sys.Device(gpus[0])
	dev1, _ := sys.Device(gpus[1])
	cpuDev, _ := sys.Device(sys.CPUID())
	speed := func(d sim.Device) float64 {
		if d.Speed <= 0 {
			return 1
		}
		return d.Speed
	}
	s0, s1, sc := speed(dev0), speed(dev1), speed(cpuDev)
	slowest := min(s0, s1)

	// --- Horizon for normalization and big-M: a serial schedule at the
	// slowest applicable speed always fits inside it.
	var h time.Duration
	for _, nd := range nodes {
		sp := sc
		if nd.Kind == graph.KindGPU {
			sp = slowest
		}
		h += time.Duration(float64(nd.Cost) / sp)
	}
	for _, cv := range m.comms {
		h += cv.cost
	}
	if h <= 0 {
		h = time.Nanosecond
	}
	m.horizon = h
	norm := func(d time.Duration) float64 { return float64(d) / float64(h) }
	const bigM = 2.0 // times are normalized to [0,1]

	// --- Variable layout.
	n := g.NumNodes()
	k := len(m.comms)
	nv := 0
	alloc := func() int { nv++; return nv - 1 }
	// Binaries are listed in allocation order: x, then z, then δ.
	allocBinary := func() int {
		v := alloc()
		m.binary = append(m.binary, v)
		return v
	}
	m.sOp = make([]int, n)
	for i := range m.sOp {
		m.sOp[i] = alloc()
	}
	m.sComm = make([]int, k)
	for i := range m.sComm {
		m.sComm[i] = alloc()
	}
	m.cmax = alloc()
	m.xVar = make([]int, n)
	var gpuNodes, cpuNodes []graph.NodeID
	// Group-level placement variables: one binary per colocation group
	// rather than per operation (SNIPPETS' QuickP formulation, composing
	// with §3.3 coarsening). Ungrouped nodes — and every node under the
	// PerOpModel ablation — get their own variable, so a graph without
	// groups falls back to the per-op model exactly.
	xOfGroup := make(map[string]int)
	for i, nd := range nodes {
		if nd.Kind != graph.KindGPU {
			m.xVar[i] = -1
			if nd.Kind == graph.KindCPU || nd.Kind == graph.KindKernel {
				cpuNodes = append(cpuNodes, graph.NodeID(i))
			}
			continue
		}
		gpuNodes = append(gpuNodes, graph.NodeID(i))
		grp := colocKey(graph.NodeID(i))
		if grp != "" {
			if v, ok := xOfGroup[grp]; ok {
				m.xVar[i] = v
				continue
			}
		}
		v := allocBinary()
		m.xVar[i] = v
		m.xGroups = append(m.xGroups, v)
		if grp != "" {
			xOfGroup[grp] = v
		}
	}
	m.zVar = make([]int, k)
	for i, cv := range m.comms {
		if cv.kind == commGG {
			m.zVar[i] = allocBinary()
		} else {
			m.zVar[i] = -1
		}
	}

	// Reachability (transitive precedence) over the coarse graph: pairs
	// already ordered by precedence need no disjunctive machinery.
	reach, err := reachability(g)
	if err != nil {
		return nil, err
	}

	// Rows are collected first and the LP sized afterwards, since the
	// disjunctions allocate their δ variables as they are written.
	type row struct {
		terms []lp.Term
		rel   lp.Rel
		rhs   float64
	}
	var rows []row
	add := func(terms []lp.Term, rel lp.Rel, rhs float64) {
		rows = append(rows, row{terms: terms, rel: rel, rhs: rhs})
	}

	// dur[i] is i's duration: its time on GPU 0 (or the CPU) plus, on
	// heterogeneous GPUs, the change when placed on GPU 1 instead.
	dur := make([]affine, n)
	for i, nd := range nodes {
		sp := sc
		if nd.Kind == graph.KindGPU {
			sp = s0
		}
		dur[i].c = norm(time.Duration(float64(nd.Cost) / sp))
		if nd.Kind == graph.KindGPU && s0 != s1 {
			if d := norm(time.Duration(float64(nd.Cost)/s1)) - dur[i].c; d != 0 {
				dur[i].terms = []lp.Term{{Var: m.xVar[i], Coef: d}}
			}
		}
	}
	// after writes S_i + dur_i ≤ v: v starts once i ends.
	after := func(i graph.NodeID, v int) {
		terms := make([]lp.Term, 0, 2+len(dur[i].terms))
		terms = append(terms, lp.Term{Var: m.sOp[i], Coef: 1}, lp.Term{Var: v, Coef: -1})
		add(append(terms, dur[i].terms...), lp.LE, -dur[i].c)
	}

	// (1)+(2): precedence through comm vertices; (3): Cmax bounds.
	for ci, cv := range m.comms {
		after(cv.from, m.sComm[ci])
		// S_k + dur_k <= S_j, dur_k = z_k*p_k (GG) or p_k (CG/GC).
		if m.zVar[ci] >= 0 {
			add([]lp.Term{
				{Var: m.sComm[ci], Coef: 1},
				{Var: m.zVar[ci], Coef: norm(cv.cost)},
				{Var: m.sOp[cv.to], Coef: -1},
			}, lp.LE, 0)
		} else {
			add([]lp.Term{{Var: m.sComm[ci], Coef: 1}, {Var: m.sOp[cv.to], Coef: -1}}, lp.LE, -norm(cv.cost))
		}
	}
	for _, e := range plain {
		after(e.From, m.sOp[e.To])
	}
	for i := 0; i < n; i++ {
		after(graph.NodeID(i), m.cmax)
	}

	// (5): z_k = x_i XOR x_j, linearized as four inequalities.
	for ci, cv := range m.comms {
		if m.zVar[ci] < 0 {
			continue
		}
		z, xi, xj := m.zVar[ci], m.xVar[cv.from], m.xVar[cv.to]
		add([]lp.Term{{Var: z, Coef: 1}, {Var: xi, Coef: -1}, {Var: xj, Coef: -1}}, lp.LE, 0)
		add([]lp.Term{{Var: z, Coef: -1}, {Var: xi, Coef: 1}, {Var: xj, Coef: -1}}, lp.LE, 0)
		add([]lp.Term{{Var: z, Coef: -1}, {Var: xi, Coef: -1}, {Var: xj, Coef: 1}}, lp.LE, 0)
		add([]lp.Term{{Var: z, Coef: 1}, {Var: xi, Coef: 1}, {Var: xj, Coef: 1}}, lp.LE, 2)
	}

	// Colocation: equal x within a group. Under the group-level model
	// members already share one variable, so tying rows exist only for
	// the PerOpModel ablation.
	if opts.PerOpModel {
		colocRep := make(map[string]graph.NodeID)
		for _, id := range gpuNodes {
			grp := nodes[id].Coloc
			if grp == "" {
				continue
			}
			if repID, ok := colocRep[grp]; ok {
				add([]lp.Term{{Var: m.xVar[id], Coef: 1}, {Var: m.xVar[repID], Coef: -1}}, lp.EQ, 0)
			} else {
				colocRep[grp] = id
			}
		}
	}

	// disjunction orders two activities that may share a resource, with
	// start variables a and b (§3.2.2 (7) and (10)): it allocates a δ
	// binary and, for each gate g, writes
	//
	//	S_a ≥ S_b + dur_b − M·δ − M·g
	//	S_b ≥ S_a + dur_a − M·(1−δ) − M·g
	//
	// A gate is 0 when the placement puts both on the resource and at
	// least 1 otherwise, so each gate's pair of rows binds only when it
	// is 0. Without gates the pair always shares the resource.
	disjunction := func(a, b int, durA, durB affine, gates ...affine) {
		d := allocBinary()
		if len(gates) == 0 {
			gates = []affine{{}}
		}
		// half writes S_first − S_second + dCoef·δ + dur.terms − M·g.terms
		// ≤ M·(k + g.c) − dur.c, its big-M constants added in one step.
		half := func(first, second int, dCoef float64, dur, g affine, k float64) {
			terms := make([]lp.Term, 0, 3+len(g.terms)+len(dur.terms))
			terms = append(terms, lp.Term{Var: first, Coef: 1}, lp.Term{Var: second, Coef: -1}, lp.Term{Var: d, Coef: dCoef})
			for _, t := range g.terms {
				terms = append(terms, lp.Term{Var: t.Var, Coef: -bigM * t.Coef})
			}
			rhs := -dur.c
			if k += g.c; k != 0 {
				rhs += bigM * k
			}
			add(append(terms, dur.terms...), lp.LE, rhs)
		}
		for _, g := range gates {
			half(b, a, -bigM, durB, g, 0)
			half(a, b, bigM, durA, g, 1)
		}
	}

	// (10): non-overlap of same-device operations. Only the
	// nonOverlapTopK precedence-unrelated pairs with the largest combined
	// compute time are modelled; dropped pairs make C_max optimistic but
	// keep the LP tractable (plans are re-validated in the simulator).
	// Two GPU ops share a GPU when both sit on GPU 1 (2−x_i−x_j = 0) or
	// both on GPU 0 (x_i+x_j = 0); CPU ops always share the one CPU core.
	for _, pr := range topPairs(gpuNodes, reach, nodes, nonOverlapTopK) {
		xi, xj := m.xVar[pr[0]], m.xVar[pr[1]]
		disjunction(m.sOp[pr[0]], m.sOp[pr[1]], dur[pr[0]], dur[pr[1]],
			affine{2, []lp.Term{{Var: xi, Coef: -1}, {Var: xj, Coef: -1}}},
			affine{0, []lp.Term{{Var: xi, Coef: 1}, {Var: xj, Coef: 1}}})
	}
	for _, pr := range topPairs(cpuNodes, reach, nodes, nonOverlapTopK) {
		disjunction(m.sOp[pr[0]], m.sOp[pr[1]], dur[pr[0]], dur[pr[1]])
	}

	// (7): congestion — transfers sharing a link must not overlap. Per
	// kind, only the congestionTopK largest transfers are paired (tiny
	// transfers contribute no meaningful congestion but quadratic LP
	// rows), and pairs ordered by precedence (the consumer of one reaches
	// the producer of the other) are skipped.
	if !opts.DisableCongestion {
		// A transfer lasts z_k·p_k (GG) or p_k (CG/GC).
		commDur := func(ci int) affine {
			c := norm(m.comms[ci].cost)
			if m.zVar[ci] < 0 {
				return affine{c: c}
			}
			return affine{terms: []lp.Term{{Var: m.zVar[ci], Coef: c}}}
		}
		// GG transfers a→b and c→d share a one-way GPU link when both
		// run into GPU 0 (2−x_a−x_c+x_b+x_d = 0) or both into GPU 1 (the
		// mirror). CPU↔GPU transfers share the host link of their GPU
		// endpoints when both sit on GPU 0 (x_a+x_b = 0) or on GPU 1
		// (2−x_a−x_b = 0).
		linkGates := func(kind commKind, ca, cb commVertex) []affine {
			if kind == commGG {
				xa, xb, xc, xd := m.xVar[ca.from], m.xVar[ca.to], m.xVar[cb.from], m.xVar[cb.to]
				return []affine{
					{2, []lp.Term{{Var: xa, Coef: -1}, {Var: xc, Coef: -1}, {Var: xb, Coef: 1}, {Var: xd, Coef: 1}}},
					{2, []lp.Term{{Var: xa, Coef: 1}, {Var: xc, Coef: 1}, {Var: xb, Coef: -1}, {Var: xd, Coef: -1}}},
				}
			}
			xa, xb := m.xVar[ca.to], m.xVar[cb.to]
			if kind == commGC {
				xa, xb = m.xVar[ca.from], m.xVar[cb.from]
			}
			return []affine{
				{0, []lp.Term{{Var: xa, Coef: 1}, {Var: xb, Coef: 1}}},
				{2, []lp.Term{{Var: xa, Coef: -1}, {Var: xb, Coef: -1}}},
			}
		}
		for _, kind := range []commKind{commGG, commCG, commGC} {
			sel := topComms(m.comms, kind, congestionTopK)
			for ai, a := range sel {
				for _, b := range sel[ai+1:] {
					ca, cb := m.comms[a], m.comms[b]
					if reach.reach(ca.to, cb.from) || reach.reach(cb.to, ca.from) {
						continue
					}
					disjunction(m.sComm[a], m.sComm[b], commDur(a), commDur(b), linkGates(kind, ca, cb)...)
				}
			}
		}
	}

	// (8): memory — hard per-GPU capacity plus the paper's balance
	// approximation.
	if !opts.DisableMemory {
		var total int64
		for _, id := range gpuNodes {
			total += nodes[id].Memory
		}
		if total > 0 {
			// Coefficients are normalized by the total footprint so the
			// memory rows share the [0,1] scale of the time rows (the
			// dense simplex tableau needs comparable row magnitudes).
			// Footprints are accumulated per placement variable first:
			// group members share one x, and one term per variable keeps
			// the row free of duplicates. Rows never change once added,
			// so the ≤ and ≥ rows share terms and neg.
			memOf := make(map[int]int64, len(m.xGroups))
			for _, id := range gpuNodes {
				memOf[m.xVar[id]] += nodes[id].Memory
			}
			terms := make([]lp.Term, 0, len(m.xGroups))
			neg := make([]lp.Term, 0, len(m.xGroups))
			for _, x := range m.xGroups {
				if mem := memOf[x]; mem > 0 {
					c := float64(mem) / float64(total)
					terms = append(terms, lp.Term{Var: x, Coef: c})
					neg = append(neg, lp.Term{Var: x, Coef: -c})
				}
			}
			// Σ m_i x_i <= cap(GPU-1).
			if dev1.Memory > 0 {
				add(terms, lp.LE, float64(dev1.Memory)/float64(total))
			}
			// Σ m_i (1-x_i) <= cap(GPU-0)  ⇔  -Σ m_i x_i <= cap0 - total.
			if dev0.Memory > 0 {
				add(neg, lp.LE, float64(dev0.Memory)/float64(total)-1)
			}
			// Balance: |Σ m_i x_i - total/2| <= slack·total. Only
			// enforced when the model cannot fit a single GPU — for
			// models that fit, forcing a split would impose
			// communication for no feasibility benefit, and the
			// C_max objective already decides whether splitting pays.
			needsSplit := (dev0.Memory > 0 && total > dev0.Memory) || (dev1.Memory > 0 && total > dev1.Memory)
			if needsSplit {
				add(terms, lp.LE, 0.5+memorySlack)
				add(neg, lp.LE, -(0.5 - memorySlack))
			}
		}
	}

	// --- Materialize the LP.
	prob := lp.NewProblem(nv)
	if err := prob.SetObjective(m.cmax, 1); err != nil {
		return nil, err
	}
	// Start times and C_max keep NewProblem's [0, +inf) bounds.
	for _, v := range m.binary {
		if err := prob.SetBounds(v, 0, 1); err != nil {
			return nil, err
		}
	}
	for _, r := range rows {
		if err := prob.AddConstraint(lp.Constraint{Terms: r.terms, Rel: r.rel, RHS: r.rhs}); err != nil {
			return nil, err
		}
	}
	m.lp = prob
	return m, nil
}

// ExactModel returns the 0-1 ILP the exact rung hands to branch and
// bound for g on sys, without coarsening g first.
func ExactModel(g *graph.Graph, sys sim.System, opts Options) (ilp.Problem, error) {
	m, err := buildModel(g, sys, opts.withDefaults())
	if err != nil {
		return ilp.Problem{}, err
	}
	return ilp.Problem{LP: m.lp, Binary: m.binary}, nil
}

// assignmentFromX reads the coarse placement from an ILP solution
// vector.
func (m *model) assignmentFromX(x []float64) []sim.DeviceID {
	gpus := m.sys.GPUs()
	out := make([]sim.DeviceID, m.g.NumNodes())
	for i, nd := range m.g.Nodes() {
		switch nd.Kind {
		case graph.KindGPU:
			if x != nil && m.xVar[i] >= 0 && x[m.xVar[i]] >= 0.5 {
				out[i] = gpus[1]
			} else {
				out[i] = gpus[0]
			}
		default:
			out[i] = m.sys.CPUID()
		}
	}
	return out
}

// repairColoc forces each colocation group of a placement rounded from
// the relaxation onto the GPU holding the majority of its members'
// fractional mass.
func (m *model) repairColoc(assign []sim.DeviceID, relaxed []float64) {
	gpus := m.sys.GPUs()
	groupMass := make(map[string][2]float64)
	nodes := m.g.Nodes()
	for i, nd := range nodes {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" || m.xVar[i] < 0 {
			continue
		}
		mass := groupMass[nd.Coloc]
		v := relaxed[m.xVar[i]]
		mass[0] += 1 - v
		mass[1] += v
		groupMass[nd.Coloc] = mass
	}
	for i, nd := range nodes {
		if nd.Kind != graph.KindGPU || nd.Coloc == "" {
			continue
		}
		mass := groupMass[nd.Coloc]
		if mass[1] > mass[0] {
			assign[i] = gpus[1]
		} else {
			assign[i] = gpus[0]
		}
	}
}

// xOf is the solution vector that places the coarse assignment: 1 for
// the placement variable of each op on GPU 1, 0 everywhere else.
func (m *model) xOf(assign []sim.DeviceID) []float64 {
	x := make([]float64, m.lp.NumVars())
	gpu1 := m.sys.GPUs()[1]
	for i, v := range m.xVar {
		if v >= 0 && assign[i] == gpu1 {
			x[v] = 1
		}
	}
	return x
}

// coarsePlan builds the coarse-graph plan of an ILP solution: the
// placement its x variables select, each device ordered by the ILP
// start times.
func (m *model) coarsePlan(x []float64) (sim.Plan, error) {
	assign := m.assignmentFromX(x)
	starts := make([]float64, len(assign))
	for i := range assign {
		if m.sOp[i] < len(x) {
			starts[i] = x[m.sOp[i]]
		}
	}
	order, err := orderByStarts(m.g, assign, starts, len(m.sys.Devices))
	return sim.Plan{Device: assign, Order: order}, err
}

// reachSet is a bitset transitive-closure over a small graph.
type reachSet struct {
	n    int
	bits []uint64 // n rows of ceil(n/64) words
	w    int
}

func reachability(g *graph.Graph) (*reachSet, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	w := (n + 63) / 64
	r := &reachSet{n: n, w: w, bits: make([]uint64, n*w)}
	// Process in reverse topological order: reach(v) = {v} ∪ reach(succ).
	for i := len(order) - 1; i >= 0; i-- {
		v := int(order[i])
		row := r.bits[v*w : (v+1)*w]
		row[v/64] |= 1 << (uint(v) % 64)
		for _, e := range g.Succ(order[i]) {
			src := r.bits[int(e.To)*w : (int(e.To)+1)*w]
			for j := 0; j < w; j++ {
				row[j] |= src[j]
			}
		}
	}
	return r, nil
}

// reach reports whether v is reachable from u (inclusive of u==v).
func (r *reachSet) reach(u, v graph.NodeID) bool {
	return r.bits[int(u)*r.w+int(v)/64]&(1<<(uint(v)%64)) != 0
}

// topPairs enumerates unordered, precedence-unrelated pairs of the
// given nodes and keeps the topK with the largest combined compute
// time.
func topPairs(ids []graph.NodeID, reach *reachSet, nodes []graph.Node, topK int) [][2]graph.NodeID {
	type weighted struct {
		pair [2]graph.NodeID
		w    time.Duration
	}
	var all []weighted
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			i, j := ids[a], ids[b]
			if reach.reach(i, j) || reach.reach(j, i) {
				continue
			}
			all = append(all, weighted{pair: [2]graph.NodeID{i, j}, w: nodes[i].Cost + nodes[j].Cost})
		}
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x].w != all[y].w {
			return all[x].w > all[y].w
		}
		if all[x].pair[0] != all[y].pair[0] {
			return all[x].pair[0] < all[y].pair[0]
		}
		return all[x].pair[1] < all[y].pair[1]
	})
	if len(all) > topK {
		all = all[:topK]
	}
	out := make([][2]graph.NodeID, len(all))
	for i, w := range all {
		out[i] = w.pair
	}
	return out
}

// topComms returns the indices of the topK most expensive comm vertices
// of one kind, in deterministic order.
func topComms(comms []commVertex, kind commKind, topK int) []int {
	var idx []int
	for i, cv := range comms {
		if cv.kind == kind {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if comms[idx[a]].cost != comms[idx[b]].cost {
			return comms[idx[a]].cost > comms[idx[b]].cost
		}
		return idx[a] < idx[b]
	})
	if len(idx) > topK {
		idx = idx[:topK]
	}
	sort.Ints(idx)
	return idx
}
