package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pesto/internal/fault"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/sim"
)

// pinnedFile holds one digest per simulated case. It is a record of the
// simulator's behaviour, not a golden to refresh: a faster simulator
// must reproduce it byte for byte. A deliberate semantic change to the
// simulator replaces it with the listing this test prints on mismatch
// (or that scripts/pin.sh writes), and the diff is reviewed like code.
var pinnedFile = filepath.Join("testdata", "run_pinned.txt")

// TestRunResultPinned hashes every field of sim.Result — Makespan,
// Start, Finish, DeviceBusy, Transfers in their reported order and
// LinkBusy sorted by key — over the gen families × 3 seeds × {FIFO,
// Priority, Random, strict Order} × {congested, CongestionFree}, plus
// fault-injected runs (stragglers with a link stall, a zero-duration
// link, a device failure that aborts the run mid-step).
func TestRunResultPinned(t *testing.T) {
	got := pinnedListing(t)
	if os.Getenv("PESTO_PIN_UPDATE") != "" {
		// scripts/pin.sh regenerates the file on an export of a base commit.
		if err := os.WriteFile(pinnedFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedFile)
	if err != nil {
		t.Fatalf("%v\ncomputed listing:\n%s", err, got)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("first difference at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
				break
			}
		}
		t.Fatalf("simulator output changed (%d vs %d lines); computed listing:\n%s", len(gl), len(wl), got)
	}
}

const pinnedGPUs = 3

func pinnedListing(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# sim.Result digests: family/seed/policy/links makespan transfers sha256[:16]\n")
	forPinnedCases(t, func(name string, g *graph.Graph, sys sim.System, plan sim.Plan) {
		res, err := sim.Run(g, sys, plan)
		writePinned(&buf, name, res, err)
	})

	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 64, CPUOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := pinnedPlan(g, 7, "fifo")
	sys := sim.NewSystem(pinnedGPUs, 16<<30)
	spec, err := fault.ParseSpec("seed=42;straggler:p=0.2,mult=8;link:*,scale=2,stall=200us@300us")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunInjected(g, sys, plan, fault.New(spec))
	writePinned(&buf, "inject/straggler+stall", res, err)
	res, err = sim.RunInjected(g, sys, plan, zeroLink{from: 1, to: 2})
	writePinned(&buf, "inject/zero-link", res, err)
	res, err = sim.RunInjected(g, sys, plan, fault.New(fault.Spec{Fail: []fault.DeviceFailure{{Dev: 2, At: 400 * time.Microsecond}}}))
	writePinned(&buf, "inject/fail", res, err)
	return buf.Bytes()
}

// forPinnedCases calls f with every case of the listing that runs
// without fault injection: the gen families × 3 seeds, then two
// uniform-cost graphs, each under every schedule discipline with
// congested and congestion-free links.
func forPinnedCases(t *testing.T, f func(name string, g *graph.Graph, sys sim.System, plan sim.Plan)) {
	t.Helper()
	policies := func(name string, g *graph.Graph, seed int64) {
		for _, pol := range []string{"fifo", "priority", "random", "order"} {
			plan := pinnedPlan(g, seed, pol)
			for _, links := range []string{"congested", "free"} {
				sys := sim.NewSystem(pinnedGPUs, 16<<30)
				sys.CongestionFree = links == "free"
				f(fmt.Sprintf("%s/%s/%s", name, pol, links), g, sys, plan)
			}
		}
	}
	for _, fam := range gen.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: 40, CPUOps: 2})
			if err != nil {
				t.Fatal(err)
			}
			policies(fmt.Sprintf("%v/s%d", fam, seed), g, seed)
		}
	}
	// Equal costs and tensor sizes make simultaneous events common, so
	// these cases pin the tie order of the event queue and of Transfers.
	for _, fam := range []gen.Family{gen.Diamond, gen.Layered} {
		g, err := gen.Generate(gen.Config{Family: fam, Seed: 1, Nodes: 40, CPUOps: 2,
			MinCost: 10 * time.Microsecond, MaxCost: 10 * time.Microsecond, MinBytes: 64 << 10, MaxBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		policies(fmt.Sprintf("%v/uniform", fam), g, 1)
	}
}

// pinnedPlan places CPU-affine ops on the CPU and GPU ops (whole
// colocation groups at a time) on seeded random GPUs. "order" adds a
// strict per-device order taken from a seeded random topological order;
// "priority" draws small integer priorities so ties occur.
func pinnedPlan(g *graph.Graph, seed int64, policy string) sim.Plan {
	rng := rand.New(rand.NewSource(seed * 7919))
	n := g.NumNodes()
	plan := sim.Plan{Device: make([]sim.DeviceID, n)}
	groupDev := map[string]sim.DeviceID{}
	for i := 0; i < n; i++ {
		nd, _ := g.Node(graph.NodeID(i))
		if nd.Kind != graph.KindGPU {
			continue
		}
		d, ok := groupDev[nd.Coloc]
		if !ok || nd.Coloc == "" {
			d = sim.DeviceID(1 + rng.Intn(pinnedGPUs))
			if nd.Coloc != "" {
				groupDev[nd.Coloc] = d
			}
		}
		plan.Device[i] = d
	}
	switch policy {
	case "fifo":
		plan.Policy = sim.PolicyFIFO
	case "priority":
		plan.Policy = sim.PolicyPriority
		plan.Priority = make([]float64, n)
		for i := range plan.Priority {
			plan.Priority[i] = float64(rng.Intn(4))
		}
	case "random":
		plan.Policy = sim.PolicyRandom
		plan.Seed = seed
	case "order":
		plan.Order = make([][]graph.NodeID, pinnedGPUs+1)
		indeg := make([]int, n)
		var ready []graph.NodeID
		for i := range indeg {
			if indeg[i] = g.InDegree(graph.NodeID(i)); indeg[i] == 0 {
				ready = append(ready, graph.NodeID(i))
			}
		}
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			id := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			plan.Order[plan.Device[id]] = append(plan.Order[plan.Device[id]], id)
			for _, e := range g.Succ(id) {
				if indeg[e.To]--; indeg[e.To] == 0 {
					ready = append(ready, e.To)
				}
			}
		}
	}
	return plan
}

func writePinned(buf *bytes.Buffer, name string, r sim.Result, err error) {
	h := sha256.New()
	fmt.Fprintf(h, "makespan %d\n", r.Makespan)
	for i := range r.Start {
		fmt.Fprintf(h, "op %d %d %d\n", i, r.Start[i], r.Finish[i])
	}
	for d, b := range r.DeviceBusy {
		fmt.Fprintf(h, "busy %d %d\n", d, b)
	}
	for _, x := range r.Transfers {
		fmt.Fprintf(h, "xfer %d %d %d %d %d %d %d %d\n",
			x.Edge.From, x.Edge.To, x.Edge.Bytes, x.From, x.To, x.Enqueue, x.Start, x.Finish)
	}
	keys := make([][2]sim.DeviceID, 0, len(r.LinkBusy))
	for k := range r.LinkBusy {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(h, "link %d %d %d\n", k[0], k[1], r.LinkBusy[k])
	}
	fmt.Fprintf(buf, "%s %d %d %s", name, r.Makespan, len(r.Transfers), hex.EncodeToString(h.Sum(nil)[:16]))
	if err != nil {
		fmt.Fprintf(buf, " err=%q", err.Error())
	}
	buf.WriteByte('\n')
}

// zeroLink is a test injector that makes every transfer on one
// directional link instantaneous, so LinkBusy carries a zero-duration
// entry for it.
type zeroLink struct{ from, to sim.DeviceID }

func (z zeroLink) OpDuration(_ graph.NodeID, _ sim.DeviceID, _, base time.Duration) time.Duration {
	return base
}

func (z zeroLink) TransferDuration(from, to sim.DeviceID, _ int64, _, base time.Duration) time.Duration {
	if from == z.from && to == z.to {
		return 0
	}
	return base
}

func (z zeroLink) DeviceCapacity(_ sim.DeviceID, _ time.Duration, base int64) int64 { return base }

func (z zeroLink) FailureTime(sim.DeviceID) (time.Duration, bool) { return 0, false }
