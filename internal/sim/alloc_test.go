package sim

import (
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/graph"
)

// maxRunAllocs bounds the allocations of one Run: the Result's slices
// and map, the transfer sort, and Validate/CheckMemory bookkeeping. None
// of them is per op, per edge or per event.
const maxRunAllocs = 16

// allocCase is gen.Layered seed 7 placed round-robin over two GPUs
// under FIFO — a plan with cross-device transfers on both links.
func allocCase(t testing.TB, nodes int) (*graph.Graph, System, Plan) {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(2, 16<<30)
	plan := Plan{Device: make([]DeviceID, g.NumNodes()), Policy: PolicyFIFO}
	for i := range plan.Device {
		if nd, _ := g.Node(graph.NodeID(i)); nd.Kind == graph.KindGPU {
			plan.Device[i] = DeviceID(1 + i%2)
		}
	}
	return g, sys, plan
}

// TestRunAllocs fails when a simulation allocates per op, per edge or
// per event: the count must stay under a small constant and must not
// grow from 96 to 384 nodes.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	counts := map[int]float64{}
	for _, n := range []int{96, 384} {
		g, sys, plan := allocCase(t, n)
		res, err := Run(g, sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Transfers) == 0 {
			t.Fatalf("n=%d: plan has no transfers; the guard would not cover the link path", n)
		}
		counts[n] = testing.AllocsPerRun(50, func() {
			if _, err := Run(g, sys, plan); err != nil {
				t.Fatal(err)
			}
		})
		if counts[n] > maxRunAllocs {
			t.Errorf("n=%d: Run allocates %.0f times, want <= %d", n, counts[n], maxRunAllocs)
		}
	}
	if counts[384] > counts[96] {
		t.Errorf("allocations grow with graph size: %.0f at n=96, %.0f at n=384", counts[96], counts[384])
	}
}

// TestScorerAllocs fails when a warm Scorer.Makespan or
// Scorer.MakespanBelow allocates at all, under FIFO or Priority, with a
// limit the run stays below and one that cuts it short.
func TestScorerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	for _, n := range []int{96, 384} {
		g, sys, plan := allocCase(t, n)
		prio := plan
		prio.Policy, prio.Priority = PolicyPriority, make([]float64, len(plan.Device))
		for i := range prio.Priority {
			prio.Priority[i] = float64(i % 7)
		}
		sc := NewScorer(g, sys)
		for _, p := range []Plan{plan, prio} {
			mk, err := sc.Makespan(p)
			if err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(50, func() {
				if _, err := sc.Makespan(p); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("n=%d %v: Makespan allocates %.0f times, want 0", n, p.Policy, a)
			}
			for _, limit := range []time.Duration{mk + 1, mk / 2} {
				want := error(nil)
				if limit <= mk {
					want = ErrAboveLimit
				}
				if _, err := sc.MakespanBelow(p, limit); err != want {
					t.Fatalf("n=%d %v limit %v: MakespanBelow error %v, want %v", n, p.Policy, limit, err, want)
				}
				if a := testing.AllocsPerRun(50, func() {
					if _, err := sc.MakespanBelow(p, limit); err != want {
						t.Fatal(err)
					}
				}); a != 0 {
					t.Errorf("n=%d %v limit %v: MakespanBelow allocates %.0f times, want 0", n, p.Policy, limit, a)
				}
			}
		}
	}
}

func BenchmarkRun(b *testing.B) {
	g, sys, plan := allocCase(b, 384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, sys, plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScorerMakespan(b *testing.B) {
	g, sys, plan := allocCase(b, 384)
	sc := NewScorer(g, sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Makespan(plan); err != nil {
			b.Fatal(err)
		}
	}
}

var scorerSink *Scorer

// BenchmarkNewScorer is the one-off cost a Scorer must recoup; it must
// stay below BenchmarkRun's.
func BenchmarkNewScorer(b *testing.B) {
	g, sys, _ := allocCase(b, 384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorerSink = NewScorer(g, sys)
	}
}
