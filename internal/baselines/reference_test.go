package baselines

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/models"
	"pesto/internal/sim"
)

// refMETFLike is the reference ListSchedule is held to: it rescans
// every ready op's predecessors and re-sorts the ready list on every
// step, over map-held device state. It builds a tentative schedule
// (earliest start times with communication and device-availability
// constraints) and keeps the resulting placement.
func refMETFLike(g *graph.Graph, sys sim.System, rule FavoriteRule) ([]sim.DeviceID, error) {
	gpus := sys.GPUs()
	dev, _ := cpuPlacement(g, sys)
	n := g.NumNodes()
	if _, err := g.TopoSort(); err != nil {
		return nil, err
	}

	// Favorite child per node: the successor with the largest tensor
	// (SCT's "small communication times" preference).
	fav := make([]graph.NodeID, n)
	for i := range fav {
		fav[i] = -1
	}
	if rule != NoFavorite {
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

	// Device state. The CPU participates for CPU/kernel ops so cross
	// CPU-GPU communication is accounted for.
	devFree := make(map[sim.DeviceID]time.Duration, len(sys.Devices))
	memUsed := make(map[sim.DeviceID]int64, len(sys.Devices))
	lastOn := make(map[sim.DeviceID]graph.NodeID)
	finish := make([]time.Duration, n)

	pending := make([]int, n)
	var ready []graph.NodeID
	for i := 0; i < n; i++ {
		pending[i] = g.InDegree(graph.NodeID(i))
		if pending[i] == 0 {
			ready = append(ready, graph.NodeID(i))
		}
	}

	capOf := func(d sim.DeviceID) int64 {
		dv, _ := sys.Device(d)
		return dv.Memory
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
		// Pick the (op, device) pair with minimum EST, less the rule's
		// favorite-child credit.
		bestI, bestScore := -1, time.Duration(math.MaxInt64)
		var bestDev sim.DeviceID
		sort.Slice(ready, func(a, b int) bool { return ready[a] < ready[b] })
		for ri, id := range ready {
			nd, _ := g.Node(id)
			var candidates []sim.DeviceID
			if nd.Kind == graph.KindGPU {
				candidates = gpus
			} else {
				candidates = []sim.DeviceID{sys.CPUID()}
			}
			for _, d := range candidates {
				if c := capOf(d); c > 0 && nd.Kind == graph.KindGPU && memUsed[d]+nd.Memory > c {
					continue // memory-aware: skip full devices
				}
				score := est(id, d)
				for _, e := range g.Pred(id) {
					if fav[e.From] != id || dev[e.From] != d {
						continue
					}
					switch rule {
					case LastParentCredit:
						// Prefer running a favorite child right after
						// its parent on the same device.
						if lastOn[d] == e.From {
							score -= sys.TransferTime(d, otherGPU(gpus, d), e.Bytes) / 2
							if score < 0 {
								score = 0
							}
						}
					case ParentCount:
						score -= score / 8
					}
				}
				if score < bestScore {
					bestScore = score
					bestI = ri
					bestDev = d
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("baechi: no device fits any ready op: %w", sim.ErrOOM)
		}
		id := ready[bestI]
		ready = append(ready[:bestI], ready[bestI+1:]...)
		nd, _ := g.Node(id)
		start := est(id, bestDev)
		finish[id] = start + nd.Cost
		devFree[bestDev] = finish[id]
		dev[id] = bestDev
		lastOn[bestDev] = id
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
// last failed; two hosts of two GPUs; and two GPUs without a memory
// capacity, as the placement search's simulated system lifts it under
// DisableMemory.
func listSystems(g *graph.Graph) []sim.System {
	uncapped := sim.NewSystem(2, 1<<20)
	for i := range uncapped.Devices {
		uncapped.Devices[i].Memory = 0
	}
	return []sim.System{
		sim.NewSystem(2, 16<<30),
		sim.NewSystem(2, g.TotalMemory()*3/5+1),
		sim.NewSystem(2, 1<<20),
		sim.NewSystem(3, g.TotalMemory()/2+1).WithFailedDevice(3),
		sim.NewMultiHostSystem(2, 2, 16<<30),
		uncapped,
	}
}

// sameListSchedule fails when ListSchedule and refMETFLike disagree on g
// and sys under any favorite-child rule: device vectors, or error class
// and message.
func sameListSchedule(t *testing.T, name string, g *graph.Graph, sys sim.System) {
	t.Helper()
	for _, rule := range []FavoriteRule{NoFavorite, LastParentCredit, ParentCount} {
		got, err := ListSchedule(g, sys, rule)
		want, werr := refMETFLike(g, sys, rule)
		if (err == nil) != (werr == nil) || err != nil && (err.Error() != werr.Error() || errors.Is(err, sim.ErrOOM) != errors.Is(werr, sim.ErrOOM)) {
			t.Fatalf("%s rule=%d: error %v, reference %v", name, rule, err, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s rule=%d: devices differ from the reference\n got  %v\n want %v", name, rule, got, want)
		}
	}
}

// TestListSchedulersMatchReference holds the list scheduler, under
// each favorite-child rule (m-ETF, m-SCT and Pesto's parent-count
// seed), to its rescanning reference over every gen family × seeds
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

// FuzzListSchedulersMatchReference holds the list scheduler, under each
// favorite-child rule, to its reference on generated graphs under a
// fuzzed memory cap.
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

// BenchmarkListSchedule times one ListSchedule call per favorite-child
// rule on two ladder_zoo graphs at two 16 GiB GPUs; -benchmem gives the
// per-call allocations the list scheduler is held to.
func BenchmarkListSchedule(b *testing.B) {
	for _, name := range []string{"NASNet-6-148", "RNNLM-2-2048"} {
		v, err := models.FindVariant(name)
		if err != nil {
			b.Fatal(err)
		}
		g, err := v.Build()
		if err != nil {
			b.Fatal(err)
		}
		sys := sim.NewSystem(2, 16<<30)
		for _, rule := range []FavoriteRule{NoFavorite, LastParentCredit, ParentCount} {
			b.Run(fmt.Sprintf("%s/rule%d", name, rule), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ListSchedule(g, sys, rule); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
