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
	"math"
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
		fk := nodes[e.From].Kind
		tk := nodes[e.To].Kind
		fGPU := fk == graph.KindGPU
		tGPU := tk == graph.KindGPU
		switch {
		case fGPU && tGPU:
			if k := colocKey(e.From); k != "" && k == colocKey(e.To) {
				// Colocated endpoints can never be split, so the edge
				// carries no transfer and needs no comm vertex or z
				// variable; the plain-precedence loop below covers it.
				break
			}
			m.comms = append(m.comms, commVertex{
				kind: commGG, from: e.From, to: e.To,
				cost: sys.TransferTime(gpus[0], gpus[1], e.Bytes),
			})
		case !fGPU && tGPU:
			m.comms = append(m.comms, commVertex{
				kind: commCG, from: e.From, to: e.To,
				cost: sys.TransferTime(cpu, gpus[0], e.Bytes),
			})
		case fGPU && !tGPU:
			m.comms = append(m.comms, commVertex{
				kind: commGC, from: e.From, to: e.To,
				cost: sys.TransferTime(gpus[0], cpu, e.Bytes),
			})
		default:
			// CPU→CPU (incl. kernel): colocated, no comm vertex.
		}
	}

	// --- Device speeds (heterogeneous GPUs are supported: an
	// operation's duration becomes d0 + (d1-d0)·x_i, still linear).
	dev0, _ := sys.Device(gpus[0])
	dev1, _ := sys.Device(gpus[1])
	cpuDev, _ := sys.Device(sys.CPUID())
	s0, s1, sc := dev0.Speed, dev1.Speed, cpuDev.Speed
	if s0 <= 0 {
		s0 = 1
	}
	if s1 <= 0 {
		s1 = 1
	}
	if sc <= 0 {
		sc = 1
	}
	slowest := s0
	if s1 < slowest {
		slowest = s1
	}

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
	var gpuNodes []graph.NodeID
	// Group-level placement variables: one binary per colocation group
	// rather than per operation (SNIPPETS' QuickP formulation, composing
	// with §3.3 coarsening). Ungrouped nodes — and every node under the
	// PerOpModel ablation — get their own variable, so a graph without
	// groups falls back to the per-op model exactly.
	xOfGroup := make(map[string]int)
	for i, nd := range nodes {
		if nd.Kind != graph.KindGPU {
			m.xVar[i] = -1
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
		v := alloc()
		m.xVar[i] = v
		m.xGroups = append(m.xGroups, v)
		if grp != "" {
			xOfGroup[grp] = v
		}
	}
	m.zVar = make([]int, k)
	for i, cv := range m.comms {
		if cv.kind == commGG {
			m.zVar[i] = alloc()
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

	// δ variables come later (allocated as constraints are emitted), so
	// build the LP after we know... lp.Problem requires var count up
	// front; allocate δs now by enumerating the same pairs the emitters
	// will: easiest is to collect constraint rows first with a growable
	// variable allocator, then size the problem.
	type row struct {
		terms []lp.Term
		rel   lp.Rel
		rhs   float64
	}
	var rows []row
	add := func(terms []lp.Term, rel lp.Rel, rhs float64) {
		rows = append(rows, row{terms: terms, rel: rel, rhs: rhs})
	}

	// base(i) is the duration of i on GPU-0 (or the CPU); delta(i) is
	// the duration change when placed on GPU-1 instead.
	base := func(i graph.NodeID) float64 {
		if nodes[i].Kind == graph.KindGPU {
			return norm(time.Duration(float64(nodes[i].Cost) / s0))
		}
		return norm(time.Duration(float64(nodes[i].Cost) / sc))
	}
	delta := func(i graph.NodeID) float64 {
		if nodes[i].Kind != graph.KindGPU || s0 == s1 {
			return 0
		}
		return norm(time.Duration(float64(nodes[i].Cost)/s1)) - norm(time.Duration(float64(nodes[i].Cost)/s0))
	}
	// durTerms appends i's placement-dependent duration to a row's
	// left-hand side with the given sign and returns the adjusted
	// terms; the constant part goes to the RHS at the call site.
	durTerms := func(terms []lp.Term, i graph.NodeID, sign float64) []lp.Term {
		if d := delta(i); d != 0 {
			terms = append(terms, lp.Term{Var: m.xVar[i], Coef: sign * d})
		}
		return terms
	}
	p := base

	// (1)+(2): precedence through comm vertices; (3): Cmax bounds.
	for ci, cv := range m.comms {
		// S_i + dur_i <= S_k
		add(durTerms([]lp.Term{{Var: m.sOp[cv.from], Coef: 1}, {Var: m.sComm[ci], Coef: -1}}, cv.from, 1), lp.LE, -p(cv.from))
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
	hasComm := make(map[[2]graph.NodeID]bool, k)
	for _, cv := range m.comms {
		hasComm[[2]graph.NodeID{cv.from, cv.to}] = true
	}
	for _, e := range g.Edges() {
		if hasComm[[2]graph.NodeID{e.From, e.To}] {
			continue
		}
		// CPU→CPU edge: plain precedence, colocated transfer free.
		add(durTerms([]lp.Term{{Var: m.sOp[e.From], Coef: 1}, {Var: m.sOp[e.To], Coef: -1}}, e.From, 1), lp.LE, -p(e.From))
	}
	for i := 0; i < n; i++ {
		// S_i + dur_i <= Cmax.
		add(durTerms([]lp.Term{{Var: m.sOp[i], Coef: 1}, {Var: m.cmax, Coef: -1}}, graph.NodeID(i), 1), lp.LE, -p(graph.NodeID(i)))
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

	// (10): non-overlap of same-device operations. Unordered pairs not
	// related by precedence get one δ binary and the gated disjunction.
	// Only the nonOverlapTopK pairs with the largest combined compute
	// time are modelled; dropped pairs make C_max optimistic but keep
	// the LP tractable (plans are re-validated in the simulator).
	var deltaVars []int
	// GPU–GPU pairs.
	for _, pair := range topPairs(gpuNodes, reach, nodes, nonOverlapTopK) {
		{
			i, j := pair[0], pair[1]
			d := alloc()
			deltaVars = append(deltaVars, d)
			xi, xj := m.xVar[i], m.xVar[j]
			// Same GPU-1 (x_i=x_j=1): relax term M(2-x_i-x_j).
			// S_i >= S_j + dur_j - M δ - M(2-x_i-x_j)
			add(durTerms([]lp.Term{
				{Var: m.sOp[j], Coef: 1}, {Var: m.sOp[i], Coef: -1},
				{Var: d, Coef: -bigM}, {Var: xi, Coef: bigM}, {Var: xj, Coef: bigM},
			}, j, 1), lp.LE, -p(j)+2*bigM)
			add(durTerms([]lp.Term{
				{Var: m.sOp[i], Coef: 1}, {Var: m.sOp[j], Coef: -1},
				{Var: d, Coef: bigM}, {Var: xi, Coef: bigM}, {Var: xj, Coef: bigM},
			}, i, 1), lp.LE, -p(i)+3*bigM)
			// Same GPU-0 (x_i=x_j=0): relax term M(x_i+x_j).
			add(durTerms([]lp.Term{
				{Var: m.sOp[j], Coef: 1}, {Var: m.sOp[i], Coef: -1},
				{Var: d, Coef: -bigM}, {Var: xi, Coef: -bigM}, {Var: xj, Coef: -bigM},
			}, j, 1), lp.LE, -p(j))
			add(durTerms([]lp.Term{
				{Var: m.sOp[i], Coef: 1}, {Var: m.sOp[j], Coef: -1},
				{Var: d, Coef: bigM}, {Var: xi, Coef: -bigM}, {Var: xj, Coef: -bigM},
			}, i, 1), lp.LE, -p(i)+bigM)
		}
	}
	// CPU pairs (single CPU core model, incl. kernel ops).
	var cpuNodes []graph.NodeID
	for i, nd := range nodes {
		if nd.Kind == graph.KindCPU || nd.Kind == graph.KindKernel {
			cpuNodes = append(cpuNodes, graph.NodeID(i))
		}
	}
	for _, pair := range topPairs(cpuNodes, reach, nodes, nonOverlapTopK) {
		{
			i, j := pair[0], pair[1]
			d := alloc()
			deltaVars = append(deltaVars, d)
			add([]lp.Term{
				{Var: m.sOp[j], Coef: 1}, {Var: m.sOp[i], Coef: -1}, {Var: d, Coef: -bigM},
			}, lp.LE, -p(j))
			add([]lp.Term{
				{Var: m.sOp[i], Coef: 1}, {Var: m.sOp[j], Coef: -1}, {Var: d, Coef: bigM},
			}, lp.LE, -p(i)+bigM)
		}
	}

	// (7): congestion — GG transfers sharing a one-way GPU link must not
	// overlap. Skip pairs ordered by precedence (producer of one
	// reaches consumer of the other); only the congestionTopK largest
	// transfers get pairwise constraints (tiny transfers contribute no
	// meaningful congestion but quadratic LP rows).
	if !opts.DisableCongestion {
		gg := topComms(m.comms, commGG, congestionTopK)
		for ai := 0; ai < len(gg); ai++ {
			a := gg[ai]
			for bi := ai + 1; bi < len(gg); bi++ {
				b := gg[bi]
				ca, cb := m.comms[a], m.comms[b]
				if reach.reach(ca.to, cb.from) || reach.reach(cb.to, ca.from) {
					continue // transfers are precedence-ordered
				}
				d := alloc()
				deltaVars = append(deltaVars, d)
				xa, xb := m.xVar[ca.from], m.xVar[ca.to]
				xc, xd := m.xVar[cb.from], m.xVar[cb.to]
				// Direction 1→0 active iff xa=1, xb=0, xc=1, xd=0:
				// relax with M(xa+xc-xb-xd-2).
				congestion := func(sFirst, sSecond int, durSecond lp.Term, deltaCoef float64, deltaRHS float64, dir int) {
					// S_first >= S_second + dur_second - Mδ(±) + M(pattern-2)
					terms := []lp.Term{
						{Var: sSecond, Coef: 1},
						{Var: sFirst, Coef: -1},
						{Var: d, Coef: deltaCoef},
					}
					if durSecond.Coef != 0 {
						terms = append(terms, durSecond)
					}
					if dir == 0 { // traffic into GPU-0: sources x=1, dests x=0
						terms = append(terms,
							lp.Term{Var: xa, Coef: bigM}, lp.Term{Var: xc, Coef: bigM},
							lp.Term{Var: xb, Coef: -bigM}, lp.Term{Var: xd, Coef: -bigM})
						add(terms, lp.LE, deltaRHS+2*bigM)
					} else { // traffic into GPU-1: sources x=0, dests x=1
						terms = append(terms,
							lp.Term{Var: xa, Coef: -bigM}, lp.Term{Var: xc, Coef: -bigM},
							lp.Term{Var: xb, Coef: bigM}, lp.Term{Var: xd, Coef: bigM})
						add(terms, lp.LE, deltaRHS+2*bigM)
					}
				}
				for dir := 0; dir < 2; dir++ {
					// S_a >= S_b + z_b p_b - Mδ + relax
					congestion(m.sComm[a], m.sComm[b],
						lp.Term{Var: m.zVar[b], Coef: norm(cb.cost)}, -bigM, 0, dir)
					// S_b >= S_a + z_a p_a - M(1-δ) + relax
					congestion(m.sComm[b], m.sComm[a],
						lp.Term{Var: m.zVar[a], Coef: norm(ca.cost)}, bigM, bigM, dir)
				}
			}
		}
		// CG/GC transfers share the per-GPU PCIe link with others headed
		// to/from the same GPU.
		m.addHostLinkCongestion(reach, &deltaVars, alloc, add, norm, bigM, congestionTopK)
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
			// the row free of duplicates.
			memOf := make(map[int]int64, len(m.xGroups))
			for _, id := range gpuNodes {
				memOf[m.xVar[id]] += nodes[id].Memory
			}
			terms := make([]lp.Term, 0, len(m.xGroups))
			for _, x := range m.xGroups {
				if mem := memOf[x]; mem > 0 {
					terms = append(terms, lp.Term{Var: x, Coef: float64(mem) / float64(total)})
				}
			}
			dev0, _ := sys.Device(gpus[0])
			dev1, _ := sys.Device(gpus[1])
			// Σ m_i x_i <= cap(GPU-1).
			if dev1.Memory > 0 {
				add(append([]lp.Term(nil), terms...), lp.LE, float64(dev1.Memory)/float64(total))
			}
			// Σ m_i (1-x_i) <= cap(GPU-0)  ⇔  -Σ m_i x_i <= cap0 - total.
			if dev0.Memory > 0 {
				neg := make([]lp.Term, len(terms))
				for i, t := range terms {
					neg[i] = lp.Term{Var: t.Var, Coef: -t.Coef}
				}
				add(neg, lp.LE, float64(dev0.Memory)/float64(total)-1)
			}
			// Balance: |Σ m_i x_i - total/2| <= slack·total. Only
			// enforced when the model cannot fit a single GPU — for
			// models that fit, forcing a split would impose
			// communication for no feasibility benefit, and the
			// C_max objective already decides whether splitting pays.
			needsSplit := (dev0.Memory > 0 && total > dev0.Memory) || (dev1.Memory > 0 && total > dev1.Memory)
			if needsSplit {
				add(append([]lp.Term(nil), terms...), lp.LE, 0.5+memorySlack)
				neg := make([]lp.Term, len(terms))
				for i, t := range terms {
					neg[i] = lp.Term{Var: t.Var, Coef: -t.Coef}
				}
				add(neg, lp.LE, -(0.5 - memorySlack))
			}
		}
	}

	// --- Materialize the LP.
	prob := lp.NewProblem(nv)
	if err := prob.SetObjective(m.cmax, 1); err != nil {
		return nil, err
	}
	for _, s := range m.sOp {
		if err := prob.SetBounds(s, 0, math.Inf(1)); err != nil {
			return nil, err
		}
	}
	// xGroups holds each placement variable exactly once (group members
	// share an xVar entry), so no dedupe pass is needed here.
	for _, x := range m.xGroups {
		if err := prob.SetBounds(x, 0, 1); err != nil {
			return nil, err
		}
		m.binary = append(m.binary, x)
	}
	for _, z := range m.zVar {
		if z >= 0 {
			if err := prob.SetBounds(z, 0, 1); err != nil {
				return nil, err
			}
			m.binary = append(m.binary, z)
		}
	}
	for _, d := range deltaVars {
		if err := prob.SetBounds(d, 0, 1); err != nil {
			return nil, err
		}
		m.binary = append(m.binary, d)
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

// addHostLinkCongestion emits non-overlap constraints for CPU↔GPU
// transfers sharing a per-GPU PCIe direction: two CG vertices contend
// iff their consumers land on the same GPU (and similarly GC producers).
func (m *model) addHostLinkCongestion(
	reach *reachSet,
	deltaVars *[]int,
	alloc func() int,
	add func([]lp.Term, lp.Rel, float64),
	norm func(time.Duration) float64,
	bigM float64,
	topK int,
) {
	for _, ka := range []commKind{commCG, commGC} {
		sel := topComms(m.comms, ka, topK)
		m.hostLinkPairs(sel, ka, reach, deltaVars, alloc, add, norm, bigM)
	}
}

// hostLinkPairs emits the gated non-overlap constraints among one kind
// of host-link transfer.
func (m *model) hostLinkPairs(
	sel []int,
	ka commKind,
	reach *reachSet,
	deltaVars *[]int,
	alloc func() int,
	add func([]lp.Term, lp.Rel, float64),
	norm func(time.Duration) float64,
	bigM float64,
) {
	for ai := 0; ai < len(sel); ai++ {
		a := sel[ai]
		for bi := ai + 1; bi < len(sel); bi++ {
			b := sel[bi]
			ca, cb := m.comms[a], m.comms[b]
			if reach.reach(ca.to, cb.from) || reach.reach(cb.to, ca.from) {
				continue
			}
			// The GPU endpoint determines the link.
			ga, gb := ca.to, cb.to
			if ka == commGC {
				ga, gb = ca.from, cb.from
			}
			xa, xb := m.xVar[ga], m.xVar[gb]
			d := alloc()
			*deltaVars = append(*deltaVars, d)
			for dir := 0; dir < 2; dir++ {
				// Same-GPU gate: dir 0 relaxes by M(xa+xb), dir 1 by
				// M(2-xa-xb).
				gate := func(terms []lp.Term, rhs float64) {
					if dir == 0 {
						terms = append(terms, lp.Term{Var: xa, Coef: -bigM}, lp.Term{Var: xb, Coef: -bigM})
						add(terms, lp.LE, rhs)
					} else {
						terms = append(terms, lp.Term{Var: xa, Coef: bigM}, lp.Term{Var: xb, Coef: bigM})
						add(terms, lp.LE, rhs+2*bigM)
					}
				}
				gate([]lp.Term{
					{Var: m.sComm[b], Coef: 1}, {Var: m.sComm[a], Coef: -1}, {Var: d, Coef: -bigM},
				}, -norm(cb.cost))
				gate([]lp.Term{
					{Var: m.sComm[a], Coef: 1}, {Var: m.sComm[b], Coef: -1}, {Var: d, Coef: bigM},
				}, -norm(ca.cost)+bigM)
			}
		}
	}
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

// ordered reports whether u and v are related by precedence either way.
func (r *reachSet) ordered(u, v graph.NodeID) bool {
	return r.reach(u, v) || r.reach(v, u)
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
			if reach.ordered(i, j) {
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
