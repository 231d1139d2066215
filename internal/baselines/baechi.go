package baselines

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

// BaechiHeuristic selects one of Baechi's three memory-aware placement
// algorithms (Jeon et al., SoCC'20), the algorithmic state of the art
// Pesto compares against in Figure 7 and Tables 2–3.
type BaechiHeuristic int

const (
	// MTopo splits a topological order into per-device chunks by
	// memory budget.
	MTopo BaechiHeuristic = iota + 1
	// METF greedily assigns the ready task that can start earliest,
	// memory permitting (memory-aware Earliest-Task-First).
	METF
	// MSCT augments m-ETF with Small-Communication-Times favorite-child
	// preferences: each task's heaviest-communication successor is
	// biased onto the same device, approximating the SCT LP of Hanen &
	// Munier as Baechi does. In the paper's experiments m-SCT is the
	// best Baechi heuristic throughout.
	MSCT
)

// String implements fmt.Stringer.
func (h BaechiHeuristic) String() string {
	switch h {
	case MTopo:
		return "m-TOPO"
	case METF:
		return "m-ETF"
	case MSCT:
		return "m-SCT"
	default:
		return fmt.Sprintf("BaechiHeuristic(%d)", int(h))
	}
}

// Baechi computes a memory-aware placement with the selected heuristic.
// Like the original system, it emits placement only (the framework's
// ready queue schedules operations).
func Baechi(g *graph.Graph, sys sim.System, h BaechiHeuristic) (sim.Plan, error) {
	gpus := sys.GPUs()
	if len(gpus) == 0 {
		return sim.Plan{}, ErrNoGPUs
	}
	var (
		dev []sim.DeviceID
		err error
	)
	switch h {
	case MTopo:
		dev, err = mTopo(g, sys, gpus)
	case METF:
		dev, err = ListSchedule(g, sys, NoFavorite)
	case MSCT:
		dev, err = ListSchedule(g, sys, LastParentCredit)
	default:
		return sim.Plan{}, fmt.Errorf("unknown baechi heuristic %d", h)
	}
	if err != nil {
		return sim.Plan{}, err
	}
	applyColoc(g, dev)
	return sim.Plan{Device: dev, Policy: sim.PolicyFIFO}, nil
}

// BaechiHeuristics lists the heuristics BestBaechi compares, in the
// order that breaks makespan ties.
var BaechiHeuristics = [...]BaechiHeuristic{MSCT, METF, MTopo}

// Scored is a baseline plan with its simulated makespan, or the error
// that stopped building or simulating it.
type Scored struct {
	Plan     sim.Plan
	Makespan time.Duration
	Err      error
}

// Score simulates plan on sys and records its makespan. It records no
// schedule: a caller that needs one re-runs the winner through sim.Run.
func Score(g *graph.Graph, sys sim.System, plan sim.Plan) Scored {
	mk, err := sim.Makespan(g, sys, plan)
	return Scored{Plan: plan, Makespan: mk, Err: err}
}

// ScoreBaechi builds heuristic h's plan and scores it, the step
// BestBaechi takes once per heuristic.
func ScoreBaechi(g *graph.Graph, sys sim.System, h BaechiHeuristic) Scored {
	plan, err := Baechi(g, sys, h)
	if err != nil {
		return Scored{Err: err}
	}
	return Score(g, sys, plan)
}

// Best returns the index of the first plan with the strictly smallest
// makespan, skipping failed ones, or -1 when every plan failed.
func Best(scored []Scored) int {
	best := -1
	for i, s := range scored {
		if s.Err == nil && (best < 0 || s.Makespan < scored[best].Makespan) {
			best = i
		}
	}
	return best
}

// BestBaechi evaluates all three heuristics through the simulator and
// returns the fastest feasible plan with its heuristic — the paper
// always reports "the best Baechi heuristic" (in its experiments,
// m-SCT).
func BestBaechi(g *graph.Graph, sys sim.System) (sim.Plan, BaechiHeuristic, time.Duration, error) {
	var scored [len(BaechiHeuristics)]Scored
	for i, h := range BaechiHeuristics {
		scored[i] = ScoreBaechi(g, sys, h)
	}
	i := Best(scored[:])
	if i < 0 {
		return sim.Plan{}, 0, 0, fmt.Errorf("no baechi heuristic produced a feasible plan: %w", sim.ErrOOM)
	}
	return scored[i].Plan, BaechiHeuristics[i], scored[i].Makespan, nil
}

// mTopo fills devices with contiguous chunks of the topological order,
// bounded by a per-device memory budget.
func mTopo(g *graph.Graph, sys sim.System, gpus []sim.DeviceID) ([]sim.DeviceID, error) {
	dev, gpuOps := cpuPlacement(g, sys)
	var total int64
	for _, id := range gpuOps {
		nd, _ := g.Node(id)
		total += nd.Memory
	}
	budget := total/int64(len(gpus)) + 1
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	gi := 0
	var used int64
	for _, id := range order {
		nd, _ := g.Node(id)
		if nd.Kind != graph.KindGPU {
			continue
		}
		if used+nd.Memory > budget && gi < len(gpus)-1 {
			gi++
			used = 0
		}
		dev[id] = gpus[gi]
		used += nd.Memory
	}
	return dev, nil
}

// FavoriteRule selects how ListSchedule credits a ready op on the
// device of a parent whose favorite child it is. A node's favorite
// child is its successor over the largest tensor (SCT's "small
// communication times" preference).
type FavoriteRule int

const (
	// NoFavorite scores every (op, device) pair by earliest start
	// alone: m-ETF.
	NoFavorite FavoriteRule = iota
	// LastParentCredit takes half the favorite tensor's transfer time
	// off an op's start on the device whose last op is its favorite
	// parent, so the child may run right after it: m-SCT.
	LastParentCredit
	// ParentCount takes an eighth off an op's start on a device for
	// each favorite parent placed there: Pesto's SCT warm-start seed.
	ParentCount
)

// ListSchedule is the memory-aware earliest-start list scheduler
// behind m-ETF, m-SCT and Pesto's list-scheduling seeds. It repeatedly
// assigns the ready op that can start soonest on a device with room
// for it, accounting for communication from its placed parents, with
// rule's favorite-child credit, and returns the resulting device per
// op before colocation is applied. CPU and kernel ops run on the CPU,
// so cross CPU–GPU communication is accounted for.
//
// An op's data arrival on each device is fixed once it is ready (every
// parent is placed and finished), so it is computed once, into a row
// the op holds while on the ready list; a step only maxes it with the
// device's free time. The ready list stays sorted by ID and the scan
// keeps the first strict minimum, ties to the lower ID, then the
// earlier device.
func ListSchedule(g *graph.Graph, sys sim.System, rule FavoriteRule) ([]sim.DeviceID, error) {
	gpus := sys.GPUs()
	cpuOnly := []sim.DeviceID{sys.CPUID()}
	n, nd := g.NumNodes(), len(sys.Devices)
	dev := make([]sim.DeviceID, n)

	// Favorite child per node, and with LastParentCredit that tensor's
	// size.
	var (
		fav      []graph.NodeID
		favBytes []int64
	)
	if rule != NoFavorite {
		fav = make([]graph.NodeID, n)
		if rule == LastParentCredit {
			favBytes = make([]int64, n)
		}
		for i := range fav {
			fav[i] = -1
			var best int64 = -1
			for _, e := range g.Succ(graph.NodeID(i)) {
				if e.Bytes > best {
					best, fav[i] = e.Bytes, e.To
				}
			}
			if favBytes != nil {
				favBytes[i] = best
			}
		}
	}

	// Device state. lastOn[d] is the op that ran last on d, -1 before
	// any; only LastParentCredit reads it.
	caps := make([]int64, nd)
	for d, dv := range sys.Devices {
		caps[d] = dv.Memory
	}
	devFree := make([]time.Duration, nd)
	memUsed := make([]int64, nd)
	var lastOn []graph.NodeID
	if rule == LastParentCredit {
		lastOn = make([]graph.NodeID, nd)
		for d := range lastOn {
			lastOn[d] = -1
		}
	}
	finish := make([]time.Duration, n)
	pending := make([]int, n)

	// ready is sorted by id. Row r of arrive holds the op's data arrival
	// per device (math.MinInt64 before any parent's) and row r of favs,
	// with ParentCount, how many of its favorite parents sit on each
	// device; freed rows are reused.
	type readyOp struct {
		id    graph.NodeID
		row   int
		gpu   bool
		mem   int64
		cands []sim.DeviceID
	}
	var (
		ready   []readyOp
		arrive  []time.Duration
		favs    []int
		freeRow []int
	)
	push := func(id graph.NodeID) {
		nd0, _ := g.Node(id)
		op := readyOp{id: id, gpu: nd0.Kind == graph.KindGPU, mem: nd0.Memory, cands: cpuOnly}
		if op.gpu {
			op.cands = gpus
		}
		if k := len(freeRow); k > 0 {
			op.row, freeRow = freeRow[k-1], freeRow[:k-1]
		} else {
			op.row = len(arrive) / nd
			arrive = append(arrive, make([]time.Duration, nd)...)
			if rule == ParentCount {
				favs = append(favs, make([]int, nd)...)
			}
		}
		row := arrive[op.row*nd:][:nd]
		for _, d := range op.cands {
			row[d] = math.MinInt64
		}
		for _, e := range g.Pred(id) {
			for _, d := range op.cands {
				arr := finish[e.From]
				if dev[e.From] != d {
					arr += sys.TransferTime(dev[e.From], d, e.Bytes)
				}
				row[d] = max(row[d], arr)
			}
		}
		if rule == ParentCount {
			fr := favs[op.row*nd:][:nd]
			clear(fr)
			for _, e := range g.Pred(id) {
				if fav[e.From] == id {
					fr[dev[e.From]]++
				}
			}
		}
		at, _ := slices.BinarySearchFunc(ready, id, func(r readyOp, id graph.NodeID) int { return cmp.Compare(r.id, id) })
		ready = slices.Insert(ready, at, op)
	}
	for i := 0; i < n; i++ {
		pending[i] = g.InDegree(graph.NodeID(i))
		if pending[i] == 0 {
			push(graph.NodeID(i))
		}
	}

	placed := 0
	for len(ready) > 0 {
		bestI, bestScore := -1, time.Duration(math.MaxInt64)
		var bestDev sim.DeviceID
		for ri, op := range ready {
			row := arrive[op.row*nd:][:nd]
			for _, d := range op.cands {
				if c := caps[d]; c > 0 && op.gpu && memUsed[d]+op.mem > c {
					continue // memory-aware: skip full devices
				}
				score := max(devFree[d], row[d])
				switch rule {
				case LastParentCredit:
					// Only the op that ran last on d can be the parent
					// the child would run right after.
					if p := lastOn[d]; p >= 0 && fav[p] == op.id {
						score = max(score-sys.TransferTime(d, otherGPU(gpus, d), favBytes[p])/2, 0)
					}
				case ParentCount:
					for k := favs[op.row*nd+int(d)]; k > 0; k-- {
						score -= score / 8
					}
				}
				if score < bestScore {
					bestScore, bestI, bestDev = score, ri, d
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("baechi: no device fits any ready op: %w", sim.ErrOOM)
		}
		op := ready[bestI]
		ready = slices.Delete(ready, bestI, bestI+1)
		freeRow = append(freeRow, op.row)
		nd0, _ := g.Node(op.id)
		finish[op.id] = max(devFree[bestDev], arrive[op.row*nd+int(bestDev)]) + nd0.Cost
		devFree[bestDev] = finish[op.id]
		dev[op.id] = bestDev
		placed++
		if rule == LastParentCredit {
			lastOn[bestDev] = op.id
		}
		if op.gpu {
			memUsed[bestDev] += op.mem
		}
		for _, e := range g.Succ(op.id) {
			pending[e.To]--
			if pending[e.To] == 0 {
				push(e.To)
			}
		}
	}
	if placed < n {
		// The ready list ran dry before every op was placed: a cycle.
		_, err := g.TopoSort()
		return nil, err
	}
	return dev, nil
}

// otherGPU returns some GPU different from d (or d itself when there is
// only one).
func otherGPU(gpus []sim.DeviceID, d sim.DeviceID) sim.DeviceID {
	for _, g := range gpus {
		if g != d {
			return g
		}
	}
	return d
}
