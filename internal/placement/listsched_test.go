package placement

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/models"
	"pesto/internal/sim"
)

// seedSystems are the systems the search's list-scheduling seeds are
// checked on, for g: two GPUs with roomy memory, with memory that fills
// one GPU, and with memory too tight for any plan; three GPUs with the
// last failed; and two hosts of two GPUs.
func seedSystems(g *graph.Graph) []sim.System {
	return []sim.System{
		sim.NewSystem(2, 16<<30),
		sim.NewSystem(2, g.TotalMemory()*3/5+1),
		sim.NewSystem(2, 1<<20),
		sim.NewSystem(3, g.TotalMemory()/2+1).WithFailedDevice(3),
		sim.NewMultiHostSystem(2, 2, 16<<30),
	}
}

// sameSeeds fails when the search's list-scheduling seeds on g
// and sys differ from the shared list scheduler, which the baselines
// package holds to its rescanning reference: the seeds must be
// baselines.ListSchedule without a favorite-child credit and then with
// the parent-count one, both on the search's world model (memory
// lifted under DisableMemory), in that order, leaving out a rule that
// fits no plan. Both memory settings are checked, so the seeds of the
// system too tight for any plan appear only with memory lifted.
func sameSeeds(t *testing.T, name string, g *graph.Graph, sys sim.System) {
	t.Helper()
	ctx := context.Background()
	for _, disableMemory := range []bool{false, true} {
		opts := Options{Parallel: 1, CoarsenTarget: g.NumNodes(), DisableMemory: disableMemory}.withDefaults()
		s, err := newSearch(ctx, g, sys, opts, time.Now())
		if err != nil {
			t.Fatalf("%s disableMemory=%v: %v", name, disableMemory, err)
		}
		got := s.listScheduling(ctx)
		s.cancel()
		model := simSystem(sys, opts)
		var want [][]sim.DeviceID
		for _, rule := range []baselines.FavoriteRule{baselines.NoFavorite, baselines.ParentCount} {
			if dev, err := baselines.ListSchedule(g, model, rule); err == nil {
				want = append(want, dev)
			}
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s disableMemory=%v: seeds differ from the list scheduler\n got  %v\n want %v", name, disableMemory, got, want)
		}
	}
}

// TestListSchedulersMatchReference holds the search's two
// list-scheduling seeds (the ETF seed and the parent-count SCT seed) to
// the shared list scheduler over every gen family × seeds 1–5 × 8–400
// ops and the five ladder_zoo graphs, on every seedSystems system.
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
				for i, sys := range seedSystems(g) {
					sameSeeds(t, fmt.Sprintf("%v/s%d/n%d/sys%d", fam, seed, nodes, i), g, sys)
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
		for i, sys := range seedSystems(g) {
			sameSeeds(t, fmt.Sprintf("%s/sys%d", name, i), g, sys)
		}
	}
}

// FuzzListSchedulersMatchReference holds the search's list-scheduling
// seeds to the shared list scheduler on generated graphs under a fuzzed
// memory cap.
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
		sameSeeds(t, "fuzz", g, sys)
	})
}
