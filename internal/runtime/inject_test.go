package runtime

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

// traceOf renders an executed step as a canonical byte-comparable
// string, the same rendering the simulator's injection tests use.
func traceOf(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %d\n", int64(r.Makespan))
	for i := range r.Start {
		fmt.Fprintf(&b, "op %d [%d %d]\n", i, int64(r.Start[i]), int64(r.Finish[i]))
	}
	return b.String()
}

func randomOrderedPlan(t *testing.T, seed int64, n int, sys sim.System) (*graph.Graph, sim.Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(gpuNode(time.Duration(1+rng.Intn(300)) * time.Microsecond))
	}
	for k := 0; k < 2*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u < v {
			_ = g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(rng.Intn(1<<20)))
		}
	}
	dev := make([]sim.DeviceID, n)
	for i := range dev {
		dev[i] = sim.DeviceID(1 + rng.Intn(2))
	}
	return g, sim.Plan{Device: dev, Order: orderFromPlacement(t, g, sys, dev)}
}

func TestExecuteInjectedDeterministic(t *testing.T) {
	sys := sim.NewSystem(2, gpuMem)
	g, plan := randomOrderedPlan(t, 11, 30, sys)
	spec, err := fault.ParseSpec("seed=42;straggler:p=0.3,mult=8;link:*,scale=2")
	if err != nil {
		t.Fatal(err)
	}
	var traces []string
	for i := 0; i < 5; i++ {
		r, err := Execute(g, sys, plan, Options{Injector: fault.New(spec)})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		traces = append(traces, traceOf(r))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i] != traces[0] {
			t.Fatalf("round %d trace differs: the injected schedule depends on goroutine interleaving", i)
		}
	}
	clean, err := Execute(g, sys, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Execute(g, sys, plan, Options{Injector: fault.New(spec)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan < clean.Makespan {
		t.Fatalf("stragglers shortened the step: %v < %v", r.Makespan, clean.Makespan)
	}
}

func TestExecuteInjectedDeviceFailure(t *testing.T) {
	sys := sim.NewSystem(2, gpuMem)
	g, plan := randomOrderedPlan(t, 12, 20, sys)
	clean, err := Execute(g, sys, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Fail: []fault.DeviceFailure{{Dev: 2, At: clean.Makespan / 2}}}
	_, err = Execute(g, sys, plan, Options{Injector: fault.New(spec)})
	if !errors.Is(err, sim.ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	var dfe *sim.DeviceFailedError
	if !errors.As(err, &dfe) || dfe.Device != 2 {
		t.Fatalf("failure detail = %v", err)
	}
}

func TestExecuteInjectedOOM(t *testing.T) {
	sys := sim.NewSystem(2, gpuMem)
	g, plan := randomOrderedPlan(t, 13, 20, sys)
	clean, err := Execute(g, sys, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Mem: []fault.MemFault{{Dev: 1, Frac: 0, At: clean.Makespan / 2}}}
	_, err = Execute(g, sys, plan, Options{Injector: fault.New(spec)})
	if !errors.Is(err, sim.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

// panicInjector panics in the chosen hook to prove worker recovery.
type panicInjector struct {
	inOp, inTransfer bool
}

func (p *panicInjector) OpDuration(_ graph.NodeID, _ sim.DeviceID, _, base time.Duration) time.Duration {
	if p.inOp {
		panic("injected op panic")
	}
	return base
}

func (p *panicInjector) TransferDuration(_, _ sim.DeviceID, _ int64, _, base time.Duration) time.Duration {
	if p.inTransfer {
		panic("injected transfer panic")
	}
	return base
}

func (p *panicInjector) DeviceCapacity(_ sim.DeviceID, _ time.Duration, base int64) int64 {
	return base
}

func (p *panicInjector) FailureTime(sim.DeviceID) (time.Duration, bool) { return 0, false }

func TestExecuteRecoversWorkerPanics(t *testing.T) {
	sys := sim.NewSystem(2, gpuMem)
	g := graph.New(2)
	a := g.AddNode(gpuNode(10 * time.Microsecond))
	b := g.AddNode(gpuNode(10 * time.Microsecond))
	mustEdge(t, g, a, b, 1<<20)
	dev := []sim.DeviceID{1, 2}
	plan := sim.Plan{Device: dev, Order: orderFromPlacement(t, g, sys, dev)}

	// Device-worker panic.
	_, err := Execute(g, sys, plan, Options{Injector: &panicInjector{inOp: true}})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("device panic: err = %v, want ErrWorkerPanic", err)
	}
	// Link-worker panic (the cross-device edge forces a transfer).
	_, err = Execute(g, sys, plan, Options{Injector: &panicInjector{inTransfer: true}})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("link panic: err = %v, want ErrWorkerPanic", err)
	}
	// Sanity: the same plan executes cleanly without the saboteur.
	if _, err := Execute(g, sys, plan, Options{Injector: &panicInjector{}}); err != nil {
		t.Fatalf("benign injector: %v", err)
	}
}

func TestExecuteInjectedAgreesWithSimulator(t *testing.T) {
	// Deterministic link degradation (no stragglers, no stalls) must
	// realize identically on both engines: the fault hooks are pure
	// functions of the same virtual quantities.
	sys := sim.NewSystem(2, gpuMem)
	g, plan := randomOrderedPlan(t, 14, 25, sys)
	spec, err := fault.ParseSpec("link:*,scale=3")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Execute(g, sys, plan, Options{Injector: fault.New(spec)})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := sim.RunInjected(g, sys, plan, fault.New(spec))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Makespan != sm.Makespan {
		t.Fatalf("runtime %v != simulator %v under identical faults", rt.Makespan, sm.Makespan)
	}
}
