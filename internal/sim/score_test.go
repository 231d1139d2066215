package sim_test

import (
	"bufio"
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

// TestScorePinned replays every case of run_pinned.txt that runs without
// fault injection through Scorer.Makespan and the package-level Makespan:
// each must report the pinned makespan, and fail where the pinned Run
// failed.
func TestScorePinned(t *testing.T) {
	f, err := os.Open(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type pinned struct {
		makespan time.Duration
		failed   bool
	}
	want := map[string]pinned{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || fields[0] == "#" {
			continue
		}
		mk, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		want[fields[0]] = pinned{time.Duration(mk), strings.Contains(sc.Text(), " err=")}
	}
	cases := 0
	forPinnedCases(t, func(name string, g *graph.Graph, sys sim.System, plan sim.Plan) {
		cases++
		w, ok := want[name]
		if !ok {
			t.Fatalf("%s: not in %s", name, pinnedFile)
		}
		scored, serr := sim.NewScorer(g, sys).Makespan(plan)
		oneOff, oerr := sim.Makespan(g, sys, plan)
		if (serr != nil) != w.failed || (oerr != nil) != w.failed {
			t.Fatalf("%s: scorer error %v, Makespan error %v, pinned failure %v", name, serr, oerr, w.failed)
		}
		if !w.failed && (scored != w.makespan || oneOff != w.makespan) {
			t.Errorf("%s: scorer %d, Makespan %d, pinned %d", name, scored, oneOff, w.makespan)
		}
	})
	if cases == 0 {
		t.Fatal("no pinned cases replayed")
	}
}

// FuzzScoreMatchesRun holds Scorer.Makespan and Makespan to Run over
// generated graphs and arbitrary plans: device vectors that may be
// invalid, split colocation groups or land on a failed device; FIFO,
// Priority (ties, ±Inf, -0 and NaN), Random, strict Order (sometimes
// not topological, so the run deadlocks), the zero and an unknown
// policy; congestion-free links, multi-host link overrides, tight
// memory and device speeds other than 1. Both must return Run's
// makespan, or an error of the same class with the same message.
func FuzzScoreMatchesRun(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(0), uint8(0), []byte{1, 2, 3})
	f.Add(int64(2), uint8(1), uint8(30), uint8(1), uint8(1), []byte{0, 7, 9, 200})
	f.Add(int64(3), uint8(2), uint8(12), uint8(2), uint8(2), []byte{3})
	f.Add(int64(4), uint8(3), uint8(40), uint8(3), uint8(4), []byte{5, 5, 5})
	f.Add(int64(5), uint8(4), uint8(25), uint8(0), uint8(8), []byte{1})
	f.Add(int64(6), uint8(2), uint8(33), uint8(1), uint8(16), []byte{2, 4})
	f.Add(int64(7), uint8(1), uint8(18), uint8(3), uint8(32), []byte{8, 1})
	f.Add(int64(8), uint8(0), uint8(22), uint8(4), uint8(63), []byte{})
	f.Add(int64(9), uint8(3), uint8(28), uint8(5), uint8(64), []byte{6, 6})
	f.Fuzz(func(t *testing.T, seed int64, family, nodes, policy, flags uint8, raw []byte) {
		fams := gen.Families()
		g, err := gen.Generate(gen.Config{Family: fams[int(family)%len(fams)], Seed: seed, Nodes: 4 + int(nodes)%44, CPUOps: 1 + int(flags)%2})
		if err != nil {
			t.Fatal(err)
		}
		sys := fuzzSystem(g, flags)
		plan := fuzzPlan(g, sys, seed, policy, flags, raw)

		res, rerr := sim.Run(g, sys, plan)
		scorer := sim.NewScorer(g, sys)
		for _, side := range []struct {
			name string
			mk   func() (time.Duration, error)
		}{
			{"Scorer.Makespan", func() (time.Duration, error) { return scorer.Makespan(plan) }},
			{"Makespan", func() (time.Duration, error) { return sim.Makespan(g, sys, plan) }},
		} {
			mk, err := side.mk()
			if (err == nil) != (rerr == nil) {
				t.Fatalf("%s error %v, Run error %v", side.name, err, rerr)
			}
			if err != nil {
				for _, class := range []error{sim.ErrBadPlacement, sim.ErrOOM} {
					if errors.Is(err, class) != errors.Is(rerr, class) {
						t.Fatalf("%s error %v, Run error %v: differ on %v", side.name, err, rerr, class)
					}
				}
				if err.Error() != rerr.Error() {
					t.Fatalf("%s error %q, Run error %q", side.name, err, rerr)
				}
				continue
			}
			if mk != res.Makespan {
				t.Fatalf("%s = %d, Run makespan %d", side.name, mk, res.Makespan)
			}
		}
	})
}

// fuzzSystem picks a system from the flag bits: three GPUs or two hosts
// of two, congestion-free links, memory tight enough to reject some
// plans, a failed GPU and mixed device speeds.
func fuzzSystem(g *graph.Graph, flags uint8) sim.System {
	mem := int64(16 << 30)
	if flags&2 != 0 {
		mem = g.TotalMemory()/3 + 1
	}
	sys := sim.NewSystem(3, mem)
	if flags&1 != 0 {
		sys = sim.NewMultiHostSystem(2, 2, mem)
	}
	sys.CongestionFree = flags&4 != 0
	if flags&8 != 0 {
		sys = sys.WithFailedDevice(2)
	}
	if flags&16 != 0 {
		speeds := []float64{0.5, 1.7, 0, -1, 3}
		for i := range sys.Devices {
			sys.Devices[i].Speed = speeds[i%len(speeds)]
		}
	}
	return sys
}

// fuzzPlan derives a plan from the fuzz bytes. Devices are mostly
// affinity-correct so that accepted plans are common.
func fuzzPlan(g *graph.Graph, sys sim.System, seed int64, policy, flags uint8, raw []byte) sim.Plan {
	n, nd := g.NumNodes(), len(sys.Devices)
	at := func(i int) byte {
		if len(raw) == 0 {
			return byte(i)
		}
		return raw[i%len(raw)]
	}
	plan := sim.Plan{Device: make([]sim.DeviceID, n), Seed: seed}
	for i := range plan.Device {
		b := at(i)
		nd0, _ := g.Node(graph.NodeID(i))
		switch {
		case b%11 == 10:
			plan.Device[i] = sim.DeviceID(int(b) % (nd + 1)) // possibly unknown or incompatible
		case nd0.Kind == graph.KindGPU:
			plan.Device[i] = sim.DeviceID(1 + int(b)%(nd-1))
		}
	}
	if flags&32 == 0 {
		// Keep colocation groups whole unless the bit asks to split them.
		groupDev := map[string]sim.DeviceID{}
		for i := range plan.Device {
			nd0, _ := g.Node(graph.NodeID(i))
			if nd0.Coloc == "" {
				continue
			}
			if d, ok := groupDev[nd0.Coloc]; ok {
				plan.Device[i] = d
			} else {
				groupDev[nd0.Coloc] = plan.Device[i]
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	switch policy % 6 {
	case 0:
		plan.Policy = sim.PolicyFIFO
	case 1:
		plan.Policy = sim.PolicyPriority
		plan.Priority = make([]float64, n)
		specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
		for i := range plan.Priority {
			b := at(i + 3)
			switch {
			case b%13 == 12 && flags&64 != 0:
				plan.Priority[i] = math.NaN()
			case b%5 == 4:
				plan.Priority[i] = specials[int(b)%len(specials)]
			default:
				plan.Priority[i] = float64(int(b)%4) - 1.5
			}
		}
	case 2:
		plan.Policy = sim.PolicyRandom
	case 3:
		plan.Order = make([][]graph.NodeID, nd)
		indeg := make([]int, n)
		var ready []graph.NodeID
		for i := range indeg {
			if indeg[i] = g.InDegree(graph.NodeID(i)); indeg[i] == 0 {
				ready = append(ready, graph.NodeID(i))
			}
		}
		var topo []graph.NodeID
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			id := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			topo = append(topo, id)
			for _, e := range g.Succ(id) {
				if indeg[e.To]--; indeg[e.To] == 0 {
					ready = append(ready, e.To)
				}
			}
		}
		if flags&64 != 0 && len(topo) > 1 {
			// Out of topological order: the run may deadlock.
			topo[0], topo[len(topo)-1] = topo[len(topo)-1], topo[0]
		}
		for _, id := range topo {
			if d := plan.Device[id]; d >= 0 && int(d) < nd {
				plan.Order[d] = append(plan.Order[d], id)
			}
		}
	case 4:
		// Zero policy: FIFO.
	case 5:
		plan.Policy = sim.SchedulePolicy(9)
	}
	return plan
}

// TestScorerConcurrent shares one Scorer between 8 goroutines, each
// scoring its own plans; every makespan must equal Run's. Run it under
// -race.
func TestScorerConcurrent(t *testing.T) {
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 3, Nodes: 120, CPUOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(3, 16<<30)
	scorer := sim.NewScorer(g, sys)
	const workers, plansEach = 8, 12
	var plans []sim.Plan
	var want []time.Duration
	for i := 0; len(plans) < workers*plansEach; i++ {
		plan := fuzzPlan(g, sys, int64(i), uint8(i%4), 0, []byte{byte(i), byte(3 * i), 7})
		if res, err := sim.Run(g, sys, plan); err == nil {
			plans, want = append(plans, plan), append(want, res.Makespan)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(plans))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := w; i < len(plans); i += workers {
					if mk, err := scorer.Makespan(plans[i]); err != nil || mk != want[i] {
						errs <- "plan " + strconv.Itoa(i) + ": got " + mk.String() + ", want " + want[i].String()
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
