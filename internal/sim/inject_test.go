package sim_test

// External test package: internal/fault implements sim.Injector, so
// tests that drive the simulator through a real injector must live
// outside package sim to avoid an import cycle.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pesto/internal/fault"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

const injGPUMem = 16 << 30

func randomGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{
			Name: "op", Kind: graph.KindGPU, Layer: -1,
			Cost:   time.Duration(1+rng.Intn(200)) * time.Microsecond,
			Memory: 1 << 20,
		})
	}
	for k := 0; k < 2*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u < v {
			_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(rng.Intn(1<<18)))
		}
	}
	return g
}

func alternatingPlan(n int) sim.Plan {
	dev := make([]sim.DeviceID, n)
	for i := range dev {
		dev[i] = sim.DeviceID(1 + i%2)
	}
	return sim.Plan{Device: dev, Policy: sim.PolicyFIFO}
}

func TestRunInjectedNilIsRun(t *testing.T) {
	g := randomGraph(1, 30)
	sys := sim.NewSystem(2, injGPUMem)
	plan := alternatingPlan(30)
	a, err := sim.Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunInjected(g, sys, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceString(a) != traceString(b) {
		t.Fatal("RunInjected(nil) diverges from Run")
	}
}

func TestRunInjectedDeterministic(t *testing.T) {
	g := randomGraph(2, 40)
	sys := sim.NewSystem(2, injGPUMem)
	plan := alternatingPlan(40)
	const specStr = "seed=42;straggler:p=0.2,mult=8;link:*,scale=2,stall=50us@100us"
	spec, err := fault.ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	var traces []string
	for i := 0; i < 5; i++ {
		// A fresh injector each round: determinism must come from the
		// spec, not injector instance state.
		r, err := sim.RunInjected(g, sys, plan, fault.New(spec))
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		traces = append(traces, traceString(r))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i] != traces[0] {
			t.Fatalf("round %d trace differs from round 0", i)
		}
	}
	clean, err := sim.Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	var r sim.Result
	if r, err = sim.RunInjected(g, sys, plan, fault.New(spec)); err != nil {
		t.Fatal(err)
	}
	if r.Makespan < clean.Makespan {
		t.Fatalf("stragglers + degraded links shortened the step: %v < %v", r.Makespan, clean.Makespan)
	}
}

func TestRunInjectedDeviceFailure(t *testing.T) {
	g := randomGraph(3, 30)
	sys := sim.NewSystem(2, injGPUMem)
	plan := alternatingPlan(30)
	clean, err := sim.Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Fail: []fault.DeviceFailure{{Dev: 2, At: clean.Makespan / 2}}}
	_, err = sim.RunInjected(g, sys, plan, fault.New(spec))
	if !errors.Is(err, sim.ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	var dfe *sim.DeviceFailedError
	if !errors.As(err, &dfe) {
		t.Fatalf("err %v is not a *DeviceFailedError", err)
	}
	if dfe.Device != 2 || dfe.At != clean.Makespan/2 {
		t.Fatalf("failure detail = %+v", dfe)
	}
	// A failure after the step completes is harmless.
	late := fault.Spec{Fail: []fault.DeviceFailure{{Dev: 2, At: clean.Makespan + time.Second}}}
	if _, err := sim.RunInjected(g, sys, plan, fault.New(late)); err != nil {
		t.Fatalf("post-step failure aborted the run: %v", err)
	}
}

func TestRunInjectedMidRunOOM(t *testing.T) {
	g := randomGraph(4, 30)
	sys := sim.NewSystem(2, injGPUMem)
	plan := alternatingPlan(30)
	clean, err := sim.Run(g, sys, plan)
	if err != nil {
		t.Fatal(err)
	}
	// The static CheckMemory passes (footprint well under 16 GB), but
	// the injected capacity collapse mid-step must surface ErrOOM.
	spec := fault.Spec{Mem: []fault.MemFault{{Dev: 2, Frac: 0, At: clean.Makespan / 2}}}
	_, err = sim.RunInjected(g, sys, plan, fault.New(spec))
	if !errors.Is(err, sim.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestWithFailedDevice(t *testing.T) {
	sys := sim.NewSystem(2, injGPUMem)
	failed := sys.WithFailedDevice(2)
	if len(sys.GPUs()) != 2 {
		t.Fatal("WithFailedDevice mutated the original system")
	}
	if got := failed.GPUs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("survivor GPUs = %v, want [1]", got)
	}
	if len(failed.Devices) != len(sys.Devices) {
		t.Fatal("failed device removed instead of marked: device IDs must stay stable")
	}
	// Plans touching the failed device no longer validate.
	g := graph.New(1)
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Microsecond, Layer: -1})
	if _, err := sim.Run(g, failed, sim.Plan{Device: []sim.DeviceID{2}}); !errors.Is(err, sim.ErrBadPlacement) {
		t.Fatalf("placement on failed device: err = %v, want ErrBadPlacement", err)
	}
	if _, err := sim.Run(g, failed, sim.Plan{Device: []sim.DeviceID{1}}); err != nil {
		t.Fatalf("placement on survivor: %v", err)
	}
}

func TestCheckMemoryMultiHost(t *testing.T) {
	// 2 hosts × 2 GPUs, tiny capacity: the per-device constraint must
	// hold on every host, and ErrOOM must be errors.Is-matchable.
	sys := sim.NewMultiHostSystem(2, 2, 3<<20)
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: time.Microsecond, Memory: 2 << 20, Layer: -1})
	}
	// Two 2 MB ops on a 3 MB remote-host GPU: OOM there.
	plan := sim.Plan{Device: []sim.DeviceID{1, 3, 3, 4}}
	if err := plan.CheckMemory(g, sys); !errors.Is(err, sim.ErrOOM) {
		t.Fatalf("CheckMemory = %v, want ErrOOM", err)
	}
	if _, err := sim.Run(g, sys, plan); !errors.Is(err, sim.ErrOOM) {
		t.Fatalf("Run = %v, want ErrOOM", err)
	}
	// Spread over all four GPUs: fits and simulates.
	ok := sim.Plan{Device: []sim.DeviceID{1, 2, 3, 4}}
	if err := ok.CheckMemory(g, sys); err != nil {
		t.Fatalf("spread plan CheckMemory: %v", err)
	}
	if _, err := sim.Run(g, sys, ok); err != nil {
		t.Fatalf("spread plan Run: %v", err)
	}
}

// FuzzRunInjectedNeverPanics: under arbitrary fault specs and graph
// shapes, the simulator must return a clean error or a valid Result —
// never panic, never report Finish < Start for an executed op.
func FuzzRunInjectedNeverPanics(f *testing.F) {
	f.Add(int64(1), "seed=42;straggler:p=0.5,mult=8")
	f.Add(int64(2), "fail:2@100us")
	f.Add(int64(3), "mem:1,frac=0.1@50us;link:*,scale=10,stall=1ms@0s")
	f.Add(int64(4), "")
	f.Fuzz(func(t *testing.T, gseed int64, specStr string) {
		spec, err := fault.ParseSpec(specStr)
		if err != nil {
			return
		}
		n := 3 + int(uint64(gseed)%37)
		g := randomGraph(gseed, n)
		sys := sim.NewSystem(2, injGPUMem)
		r, err := sim.RunInjected(g, sys, alternatingPlan(n), fault.New(spec))
		if err != nil {
			return
		}
		for i := range r.Start {
			if r.Finish[i] < r.Start[i] {
				t.Fatalf("op %d: finish %v before start %v", i, r.Finish[i], r.Start[i])
			}
		}
		if r.Makespan < 0 {
			t.Fatalf("negative makespan %v", r.Makespan)
		}
	})
}

// traceString renders a result as a canonical, byte-comparable event
// trace: two Results are behaviourally identical iff their traces are
// equal.
func traceString(r sim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %d\n", int64(r.Makespan))
	for i := range r.Start {
		fmt.Fprintf(&b, "op %d [%d %d]\n", i, int64(r.Start[i]), int64(r.Finish[i]))
	}
	for _, t := range r.Transfers {
		fmt.Fprintf(&b, "xfer %d->%d dev%d->dev%d %dB [%d %d %d]\n",
			t.Edge.From, t.Edge.To, t.From, t.To, t.Edge.Bytes,
			int64(t.Enqueue), int64(t.Start), int64(t.Finish))
	}
	return b.String()
}
