package sim

import (
	"math"
	"sync"
	"time"

	"pesto/internal/comm"
	"pesto/internal/graph"
)

// Scorer simulates many plans against one graph and system and reports
// only their makespans — what a placement search reads of each
// candidate. NewScorer resolves everything a plan cannot change once:
// every op's compute time on every device, every edge's transfer time
// over every distinct link model (link overrides and link kinds
// resolved per device pair), in-degrees, dense colocation groups and
// the device-compatibility table. Makespan then runs Run's event loop
// over those tables without recording a schedule, and MakespanBelow
// runs it only as long as the makespan may still end below a limit.
//
// A Scorer is read-only after construction, apart from the table
// MakespanBelow builds once on its first call, and both methods borrow
// their working state from a pool, so concurrent calls may share one
// Scorer and a warm call allocates nothing. Like Run, it requires that
// nothing mutates g or sys while it is in use.
type Scorer struct {
	g   *graph.Graph
	sys System

	dur   []time.Duration // dur[d*n+i]: op i's compute time on device d
	indeg []int
	mem   []int64
	// kind[i] selects op i's row of compat: compat[kind*nd+d] is
	// System.CompatibleDevice for the op's kind and device d.
	kind   []uint8
	compat []bool
	coloc  []int32 // dense colocation group, -1 for none
	groups int

	succOff []int // succOff[i]: edge index of op i's first out-edge
	links   int   // distinct link models
	linkOf  []int // linkOf[from*nd+to]: link model of the pair, -1 on the diagonal
	xfer    []time.Duration

	// tail[i] is the longest path after op i, every op at its fastest
	// compatible device and every transfer free: a lower bound on how
	// long the run lasts past op i's finish. tailOnce builds it on the
	// first MakespanBelow call; it stays nil when the bound does not
	// hold (a negative duration, a cycle), and MakespanBelow then runs
	// unbounded.
	tailOnce sync.Once
	tail     []time.Duration
}

// Op-kind rows of Scorer.compat.
const (
	kindGPU  uint8 = iota
	kindCPU        // KindCPU and KindKernel
	kindNone       // no device accepts it
)

// linkModel is one way a pair of devices prices a transfer: a per-pair
// override or the kind-based model of a link type.
type linkModel struct {
	override bool
	m        comm.Model
	t        comm.LinkType
}

// NewScorer builds the tables Makespan simulates g on sys with. Its cost
// is a fraction of one Run.
func NewScorer(g *graph.Graph, sys System) *Scorer {
	n, nd := g.NumNodes(), len(sys.Devices)
	sc := &Scorer{
		g:       g,
		sys:     sys,
		dur:     make([]time.Duration, nd*n),
		indeg:   make([]int, n),
		mem:     make([]int64, n),
		kind:    make([]uint8, n),
		coloc:   make([]int32, n),
		succOff: make([]int, n),
		linkOf:  make([]int, nd*nd),
	}
	groupOf := map[string]int32{}
	edges := 0
	for i := 0; i < n; i++ {
		id := graph.NodeID(i)
		node, _ := g.Node(id)
		for d, dev := range sys.Devices {
			sc.dur[d*n+i] = opTime(node.Cost, dev.Speed)
		}
		sc.indeg[i] = g.InDegree(id)
		sc.mem[i] = node.Memory
		switch node.Kind {
		case graph.KindGPU:
			sc.kind[i] = kindGPU
		case graph.KindCPU, graph.KindKernel:
			sc.kind[i] = kindCPU
		default:
			sc.kind[i] = kindNone
		}
		sc.coloc[i] = -1
		if node.Coloc != "" {
			grp, ok := groupOf[node.Coloc]
			if !ok {
				grp = int32(len(groupOf))
				groupOf[node.Coloc] = grp
			}
			sc.coloc[i] = grp
		}
		sc.succOff[i] = edges
		edges += g.OutDegree(id)
	}
	sc.groups = len(groupOf)
	sc.compat = make([]bool, 3*nd)
	for d := range sys.Devices {
		id := DeviceID(d)
		sc.compat[int(kindGPU)*nd+d] = sys.CompatibleDevice(graph.KindGPU, id)
		sc.compat[int(kindCPU)*nd+d] = sys.CompatibleDevice(graph.KindCPU, id)
	}

	var models []linkModel
	for from := 0; from < nd; from++ {
		for to := 0; to < nd; to++ {
			if from == to {
				sc.linkOf[from*nd+to] = -1
				continue
			}
			lm := linkModel{t: sys.LinkTypeBetween(DeviceID(from), DeviceID(to))}
			if m, ok := sys.LinkOverrides[[2]DeviceID{DeviceID(from), DeviceID(to)}]; ok {
				lm = linkModel{override: true, m: m}
			}
			k := 0
			for k < len(models) && models[k] != lm {
				k++
			}
			if k == len(models) {
				models = append(models, lm)
			}
			sc.linkOf[from*nd+to] = k
		}
	}
	sc.links = len(models)
	sc.xfer = make([]time.Duration, edges*sc.links)
	for i := 0; i < n; i++ {
		for k, e := range g.Succ(graph.NodeID(i)) {
			row := sc.xfer[(sc.succOff[i]+k)*sc.links:]
			for j, lm := range models {
				if lm.override {
					row[j] = lm.m.Time(e.Bytes)
				} else {
					row[j] = sys.Comm.Time(lm.t, e.Bytes)
				}
			}
		}
	}
	return sc
}

// transferTime is System.TransferTime of edge e between two distinct
// devices.
func (sc *Scorer) transferTime(e int, from, to DeviceID) time.Duration {
	return sc.xfer[e*sc.links+sc.linkOf[int(from)*len(sc.sys.Devices)+int(to)]]
}

// Makespan simulates one training step of the scorer's graph on its
// system under plan, exactly as Run does, and returns Run's makespan and
// error. Only the schedule is not recorded.
func (sc *Scorer) Makespan(plan Plan) (time.Duration, error) {
	return sc.makespan(plan, 0, nil)
}

// MakespanBelow is Makespan for a caller that only wants makespans
// below limit. It validates plan exactly as Makespan does and returns
// the same errors; a valid plan it either simulates to Makespan's
// result, or abandons with ErrAboveLimit once its makespan provably
// reaches limit. It returns ErrAboveLimit only where Makespan would
// return a makespan >= limit or an error, and never for a makespan
// below limit.
//
// The proof is checked whenever an op starts at now for dur: the run
// lasts at least now+dur plus the op's tail (the longest path after
// it, ops at their fastest compatible device, transfers free), and at
// least now+dur plus the compute still waiting for that device, which
// runs one op at a time.
func (sc *Scorer) MakespanBelow(plan Plan, limit time.Duration) (time.Duration, error) {
	sc.tailOnce.Do(sc.buildTail)
	return sc.makespan(plan, limit, sc.tail)
}

// makespan is the body of Makespan and MakespanBelow; a nil tail runs
// unbounded.
func (sc *Scorer) makespan(plan Plan, limit time.Duration, tail []time.Duration) (time.Duration, error) {
	s := simulation{scratch: scratchPool.Get().(*scratch), g: sc.g, sys: sc.sys, plan: plan, sc: sc}
	defer scratchPool.Put(s.scratch)
	if !sc.admits(plan, s.scratch) {
		// Validate and CheckMemory name the defect. admits is exact, so
		// they reject the plan; if they ever did not, the plan is valid
		// and simulates.
		if err := plan.Validate(sc.g, sc.sys); err != nil {
			return 0, err
		}
		if err := plan.CheckMemory(sc.g, sc.sys); err != nil {
			return 0, err
		}
	}
	n, nd := len(sc.indeg), len(sc.sys.Devices)
	s.reset(n, nd)
	copy(s.pendingDeps, sc.indeg)
	if tail != nil {
		s.limit, s.tail = limit, tail
		s.unstarted = zeroed(s.unstarted, nd)
		for i, d := range plan.Device {
			s.unstarted[d] += sc.dur[int(d)*n+i]
		}
		for _, u := range s.unstarted {
			if u >= limit {
				return 0, ErrAboveLimit
			}
		}
	}
	return s.simulate()
}

// buildTail fills sc.tail, leaving it nil when some op or transfer
// duration is negative (the run's clock could then go backwards) or the
// graph has a cycle.
func (sc *Scorer) buildTail() {
	for _, d := range sc.dur {
		if d < 0 {
			return
		}
	}
	for _, x := range sc.xfer {
		if x < 0 {
			return
		}
	}
	order, err := sc.g.TopoSort()
	if err != nil {
		return
	}
	n, nd := len(sc.indeg), len(sc.sys.Devices)
	fastest := make([]time.Duration, n)
	for i := range fastest {
		first := true
		for d, ok := range sc.compat[int(sc.kind[i])*nd:][:nd] {
			if t := sc.dur[d*n+i]; ok && (first || t < fastest[i]) {
				fastest[i], first = t, false
			}
		}
	}
	tail := make([]time.Duration, n)
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		for _, e := range sc.g.Succ(i) {
			if t := fastest[e.To] + tail[e.To]; t > tail[i] {
				tail[i] = t
			}
		}
	}
	sc.tail = tail
}

// admits reports whether Plan.Validate and Plan.CheckMemory would both
// accept plan, checking the same conditions over the dense tables.
func (sc *Scorer) admits(p Plan, s *scratch) bool {
	n, nd := len(sc.indeg), len(sc.sys.Devices)
	if len(p.Device) != n {
		return false
	}
	s.colocDev = zeroed(s.colocDev, sc.groups)
	for g := range s.colocDev {
		s.colocDev[g] = -1
	}
	s.memUse = zeroed(s.memUse, nd)
	for i, d := range p.Device {
		if d < 0 || int(d) >= nd || !sc.compat[int(sc.kind[i])*nd+int(d)] {
			return false
		}
		if g := sc.coloc[i]; g >= 0 {
			if prev := s.colocDev[g]; prev >= 0 && prev != d {
				return false
			}
			s.colocDev[g] = d
		}
		s.memUse[d] += sc.mem[i]
	}
	if p.Order != nil {
		s.seen = zeroed(s.seen, n)
		covered := 0
		for dev, order := range p.Order {
			for _, id := range order {
				if id < 0 || int(id) >= n || p.Device[id] != DeviceID(dev) || s.seen[id] {
					return false
				}
				s.seen[id] = true
				covered++
			}
		}
		if covered != n {
			return false
		}
	}
	if p.Policy == PolicyPriority {
		if len(p.Priority) != n {
			return false
		}
		for _, v := range p.Priority {
			if math.IsNaN(v) {
				return false
			}
		}
	}
	for d, dev := range sc.sys.Devices {
		if dev.Memory > 0 && s.memUse[d] > dev.Memory {
			return false
		}
	}
	return true
}
