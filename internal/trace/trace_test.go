package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

func scenario(t *testing.T) (*graph.Graph, sim.System, sim.Plan, sim.Result) {
	t.Helper()
	g := graph.New(3)
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Memory: 1})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Cost: 100 * time.Microsecond, Memory: 1})
	c := g.AddNode(graph.Node{Name: "c", Kind: graph.KindGPU, Cost: 50 * time.Microsecond, Memory: 1})
	if err := g.AddEdge(a, c, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c, 4<<20); err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(2, 16<<30)
	plan := sim.Plan{Device: []sim.DeviceID{1, 1, 2}}
	res, err := sim.Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	return g, sys, plan, res
}

func TestGanttShowsLanesAndQueueing(t *testing.T) {
	g, sys, plan, res := scenario(t)
	var sb strings.Builder
	if err := Gantt(&sb, g, sys, plan, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"cpu:0", "gpu:0", "gpu:1", "gpu:0→gpu:1", "#", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	// The two transfers to gpu:1 share the link; the second must queue,
	// which shows up as the '.' fill.
	if !strings.Contains(out, ".") {
		t.Errorf("expected queued transfer marker:\n%s", out)
	}
	// Every lane line fits the requested width (plus name and bars).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") && len([]rune(line)) > ganttWidth+20 {
			t.Errorf("line too wide: %q", line)
		}
	}
}

func TestGanttEmptyResult(t *testing.T) {
	g := graph.New(0)
	sys := sim.NewSystem(1, 1)
	var sb strings.Builder
	if err := Gantt(&sb, g, sys, sim.Plan{}, sim.Result{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Errorf("got %q", sb.String())
	}
}

func TestGanttLaneCap(t *testing.T) {
	// Seven devices and every directional GPU link: more lanes than the
	// cap.
	g := graph.New(12)
	var prev []graph.NodeID
	for layer := 0; layer < 2; layer++ {
		var cur []graph.NodeID
		for i := 0; i < 6; i++ {
			id := g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 10 * time.Microsecond, Memory: 1})
			for _, p := range prev {
				if err := g.AddEdge(p, id, 1<<20); err != nil {
					t.Fatal(err)
				}
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	sys := sim.NewSystem(6, 16<<30)
	plan := roundRobinPlan(g, 6)
	res, err := sim.Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(buildLanes(g, sys, plan, res)); n <= maxLanes {
		t.Fatalf("scenario has %d lanes, want more than %d", n, maxLanes)
	}
	var sb strings.Builder
	if err := Gantt(&sb, g, sys, plan, res); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(sb.String(), "\n") {
		if strings.Contains(l, "|") {
			lines++
		}
	}
	if lines != maxLanes {
		t.Errorf("lanes = %d, want %d", lines, maxLanes)
	}
}

func TestChromeTraceExport(t *testing.T) {
	g, sys, plan, res := scenario(t)
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, g, sys, plan, res); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	// 3 ops + 2 transfers.
	if len(parsed.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(parsed.TraceEvents))
	}
	ops, xfers := 0, 0
	for _, e := range parsed.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("malformed event %+v", e)
		}
		if e.PID >= 1000 {
			xfers++
		} else {
			ops++
		}
	}
	if ops != 3 || xfers != 2 {
		t.Fatalf("ops=%d xfers=%d", ops, xfers)
	}
}
