package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

// ganttPinnedFile records Gantt's default rendering. Like the other
// *_pinned.txt files it is a record of behaviour, not a golden to refresh:
// scripts/pin.sh regenerates it on an export of a base commit after a
// deliberate change.
var ganttPinnedFile = filepath.Join("testdata", "gantt_pinned.txt")

// TestGanttPinned pins the default chart (width and lane cap) of two
// generated graphs: one on the paper's two-GPU testbed, one on six GPUs,
// where the device and link lanes outnumber the lane cap.
func TestGanttPinned(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []struct {
		fam  gen.Family
		seed int64
		gpus int
	}{{gen.Layered, 1, 2}, {gen.Random, 2, 6}} {
		g, err := gen.Generate(gen.Config{Family: c.fam, Seed: c.seed, Nodes: 48, CPUOps: 2})
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.NewSystem(c.gpus, 16<<30)
		plan := roundRobinPlan(g, c.gpus)
		res, err := sim.Run(g, sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %v seed %d, %d GPUs, %d lanes\n", c.fam, c.seed, c.gpus, len(buildLanes(g, sys, plan, res)))
		if err := Gantt(&buf, g, sys, plan, res); err != nil {
			t.Fatal(err)
		}
	}
	got := buf.Bytes()
	if os.Getenv("PESTO_PIN_UPDATE") != "" {
		if err := os.WriteFile(ganttPinnedFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ganttPinnedFile)
	if err != nil {
		t.Fatalf("%v\ncomputed chart:\n%s", err, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Gantt rendering changed; computed chart:\n%s\nwant:\n%s", got, want)
	}
}

// roundRobinPlan places GPU operations on the GPUs in turn, keeping each
// colocation group on its first member's device, and everything else on
// the CPU.
func roundRobinPlan(g *graph.Graph, gpus int) sim.Plan {
	plan := sim.Plan{Device: make([]sim.DeviceID, g.NumNodes())}
	group := map[string]sim.DeviceID{}
	next := 0
	for i := range plan.Device {
		nd, _ := g.Node(graph.NodeID(i))
		if nd.Kind != graph.KindGPU {
			continue
		}
		d, ok := group[nd.Coloc]
		if !ok || nd.Coloc == "" {
			d = sim.DeviceID(1 + next%gpus)
			next++
			if nd.Coloc != "" {
				group[nd.Coloc] = d
			}
		}
		plan.Device[i] = d
	}
	return plan
}
