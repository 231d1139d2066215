package placement

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/models"
	"pesto/internal/sim"
)

// refGreedyETF is the reference greedyETF is held to: it rescans every
// ready op's predecessors and re-sorts the ready list on every step. It
// builds an earliest-task-first placement: repeatedly assign
// the ready operation that can start soonest on a memory-feasible
// device, accounting for communication from already-placed parents.
// With sct, each task's largest-tensor successor is biased towards the
// parent's device.
func refGreedyETF(g *graph.Graph, sys sim.System, sct bool) ([]sim.DeviceID, error) {
	gpus := sys.GPUs()
	n := g.NumNodes()
	nodes := g.Nodes()
	dev := make([]sim.DeviceID, n)
	fav := make([]graph.NodeID, n)
	for i := range fav {
		fav[i] = -1
	}
	if sct {
		for i := 0; i < n; i++ {
			var best int64 = -1
			for _, e := range g.Succ(graph.NodeID(i)) {
				if e.Bytes > best {
					best = e.Bytes
					fav[i] = e.To
				}
			}
		}
	}
	devFree := make([]time.Duration, len(sys.Devices))
	memUsed := make([]int64, len(sys.Devices))
	cpuOnly := []sim.DeviceID{sys.CPUID()}
	finish := make([]time.Duration, n)
	pending := make([]int, n)
	var ready []graph.NodeID
	for i := 0; i < n; i++ {
		pending[i] = g.InDegree(graph.NodeID(i))
		if pending[i] == 0 {
			ready = append(ready, graph.NodeID(i))
		}
	}
	est := func(id graph.NodeID, d sim.DeviceID) time.Duration {
		t := devFree[d]
		for _, e := range g.Pred(id) {
			arr := finish[e.From]
			if dev[e.From] != d {
				arr += sys.TransferTime(dev[e.From], d, e.Bytes)
			}
			if arr > t {
				t = arr
			}
		}
		return t
	}
	for len(ready) > 0 {
		slices.Sort(ready)
		bestI := -1
		var bestDev sim.DeviceID
		bestScore := time.Duration(math.MaxInt64)
		for ri, id := range ready {
			nd := nodes[id]
			cands := gpus
			if nd.Kind != graph.KindGPU {
				cands = cpuOnly
			}
			for _, d := range cands {
				if nd.Kind == graph.KindGPU && memUsed[d]+nd.Memory > memCap(sys, d) {
					continue
				}
				score := est(id, d)
				if sct {
					for _, e := range g.Pred(id) {
						if fav[e.From] == id && dev[e.From] == d {
							score -= score / 8
						}
					}
				}
				if score < bestScore {
					bestScore, bestI, bestDev = score, ri, d
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("greedy etf: no device fits any ready op: %w", sim.ErrOOM)
		}
		id := ready[bestI]
		ready = append(ready[:bestI], ready[bestI+1:]...)
		nd := nodes[id]
		startT := est(id, bestDev)
		finish[id] = startT + nd.Cost
		devFree[bestDev] = finish[id]
		dev[id] = bestDev
		if nd.Kind == graph.KindGPU {
			memUsed[bestDev] += nd.Memory
		}
		for _, e := range g.Succ(id) {
			pending[e.To]--
			if pending[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return dev, nil
}

// listSystems are the systems the list schedulers are compared on, for
// g: two GPUs with roomy memory, with memory that fills one GPU, and
// with memory too tight for any plan (ErrOOM); three GPUs with the
// last failed; two hosts of two GPUs; and two GPUs with memory lifted,
// as the search's simSystem lifts it.
func listSystems(g *graph.Graph) []sim.System {
	lifted := sim.NewSystem(2, 1<<20)
	for i := range lifted.Devices {
		lifted.Devices[i].Memory = 0
	}
	return []sim.System{
		sim.NewSystem(2, 16<<30),
		sim.NewSystem(2, g.TotalMemory()*3/5+1),
		sim.NewSystem(2, 1<<20),
		sim.NewSystem(3, g.TotalMemory()/2+1).WithFailedDevice(3),
		sim.NewMultiHostSystem(2, 2, 16<<30),
		lifted,
	}
}

// sameListSchedule fails when greedyETF and refGreedyETF disagree on g
// and sys: device vectors, or error class and message.
func sameListSchedule(t *testing.T, name string, g *graph.Graph, sys sim.System) {
	t.Helper()
	for _, sct := range []bool{false, true} {
		got, err := greedyETF(g, sys, sct)
		want, werr := refGreedyETF(g, sys, sct)
		if (err == nil) != (werr == nil) || err != nil && (err.Error() != werr.Error() || errors.Is(err, sim.ErrOOM) != errors.Is(werr, sim.ErrOOM)) {
			t.Fatalf("%s sct=%v: error %v, reference %v", name, sct, err, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s sct=%v: devices differ from the reference\n got  %v\n want %v", name, sct, got, want)
		}
	}
}

// TestListSchedulersMatchReference holds greedyETF, with and without the
// SCT bias, to its rescanning reference over every gen family × seeds
// 1–5 × 8–400 ops and the five ladder_zoo graphs, on every listSystems
// system.
func TestListSchedulersMatchReference(t *testing.T) {
	sizes := []int{8, 16, 48, 200, 400}
	if testing.Short() {
		sizes = []int{8, 48}
	}
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 5; seed++ {
			for _, nodes := range sizes {
				g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: nodes, CPUOps: int(seed) % 3})
				if err != nil {
					t.Fatal(err)
				}
				for i, sys := range listSystems(g) {
					sameListSchedule(t, fmt.Sprintf("%v/s%d/n%d/sys%d", fam, seed, nodes, i), g, sys)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, name := range []string{"RNNLM-2-2048", "NMT-2-1024", "Transformer-10-8-1024", "Transformer-6-16-2048", "NASNet-6-148"} {
		v, err := models.FindVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i, sys := range listSystems(g) {
			sameListSchedule(t, fmt.Sprintf("%s/sys%d", name, i), g, sys)
		}
	}
}

// FuzzListSchedulersMatchReference holds greedyETF to its reference on
// generated graphs under a fuzzed memory cap.
func FuzzListSchedulersMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(2), uint16(0))
	f.Add(int64(2), uint8(1), uint8(60), uint8(3), uint16(300))
	f.Add(int64(3), uint8(2), uint8(8), uint8(2), uint16(1000))
	f.Add(int64(4), uint8(3), uint8(90), uint8(4), uint16(550))
	f.Add(int64(5), uint8(4), uint8(33), uint8(2), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, family, nodes, gpus uint8, memPermille uint16) {
		fams := gen.Families()
		g, err := gen.Generate(gen.Config{Family: fams[int(family)%len(fams)], Seed: seed, Nodes: 4 + int(nodes)%120, CPUOps: int(gpus) % 3})
		if err != nil {
			t.Fatal(err)
		}
		mem := int64(16 << 30)
		if memPermille < 2000 {
			mem = g.TotalMemory()*int64(memPermille)/1000 + 1
		}
		sys := sim.NewSystem(2+int(gpus)%3, mem)
		if gpus&8 != 0 {
			sys = sim.NewMultiHostSystem(2, 2, mem)
		}
		sameListSchedule(t, "fuzz", g, sys)
	})
}
