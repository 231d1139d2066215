package coarsen

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pesto/internal/graph"
)

func gpuNode(name string, cost time.Duration) graph.Node {
	return graph.Node{Name: name, Kind: graph.KindGPU, Cost: cost, Memory: 100, Layer: -1}
}

func mustEdge(t *testing.T, g *graph.Graph, u, v graph.NodeID, bytes int64) {
	t.Helper()
	if err := g.AddEdge(u, v, bytes); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

// figure6 builds the paper's Figure 6 graph: A→C, B→D plus the cross
// edges A→D and B→C that make simultaneous merging of (A,C) and (B,D)
// unsafe.
func figure6(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	a := g.AddNode(gpuNode("A", time.Microsecond))
	b := g.AddNode(gpuNode("B", time.Microsecond))
	c := g.AddNode(gpuNode("C", time.Microsecond))
	d := g.AddNode(gpuNode("D", time.Microsecond))
	mustEdge(t, g, a, c, 10)
	mustEdge(t, g, b, d, 10)
	mustEdge(t, g, a, d, 1)
	mustEdge(t, g, b, c, 1)
	return g
}

func TestFigure6NeverCreatesCycle(t *testing.T) {
	g := figure6(t)
	res, err := Coarsen(g, Options{Target: 2})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if err := res.Coarse.Validate(); err != nil {
		t.Fatalf("coarse graph invalid: %v", err)
	}
	// At most one of (A,C), (B,D) may merge per batch; the result must
	// remain a DAG regardless of how far it got.
	if res.Coarse.NumNodes() >= g.NumNodes() {
		t.Fatalf("no merging happened: %d nodes", res.Coarse.NumNodes())
	}
}

func TestChainCollapses(t *testing.T) {
	// A pure chain of 32 nodes can always coarsen to 1 via chain
	// contraction.
	g := graph.New(32)
	prev := g.AddNode(gpuNode("n0", time.Microsecond))
	for i := 1; i < 32; i++ {
		cur := g.AddNode(gpuNode("n", time.Microsecond))
		mustEdge(t, g, prev, cur, 64)
		prev = cur
	}
	res, err := Coarsen(g, Options{Target: 1})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if res.Coarse.NumNodes() != 1 {
		t.Fatalf("chain coarsened to %d nodes, want 1", res.Coarse.NumNodes())
	}
	if len(res.Members[0]) != 32 {
		t.Fatalf("members = %d, want 32", len(res.Members[0]))
	}
	nd, _ := res.Coarse.Node(0)
	if nd.Cost != 32*time.Microsecond {
		t.Errorf("merged cost = %v, want 32µs", nd.Cost)
	}
	if nd.Memory != 32*100 {
		t.Errorf("merged memory = %d, want 3200", nd.Memory)
	}
}

func TestMembersTopologicallyOrdered(t *testing.T) {
	g := graph.New(6)
	ids := make([]graph.NodeID, 6)
	for i := range ids {
		ids[i] = g.AddNode(gpuNode("n", time.Microsecond))
	}
	// Chain 0->1->2->3->4->5.
	for i := 0; i < 5; i++ {
		mustEdge(t, g, ids[i], ids[i+1], 8)
	}
	res, err := Coarsen(g, Options{Target: 1})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	ms := res.Members[0]
	for i := 1; i < len(ms); i++ {
		if ms[i-1] >= ms[i] {
			t.Fatalf("members not in topological (here: ID) order: %v", ms)
		}
	}
}

func TestKindsNeverMix(t *testing.T) {
	g := graph.New(4)
	c1 := g.AddNode(graph.Node{Name: "cpu1", Kind: graph.KindCPU, Cost: time.Microsecond})
	g1 := g.AddNode(gpuNode("gpu1", time.Microsecond))
	g2 := g.AddNode(gpuNode("gpu2", time.Microsecond))
	c2 := g.AddNode(graph.Node{Name: "cpu2", Kind: graph.KindCPU, Cost: time.Microsecond})
	mustEdge(t, g, c1, g1, 10)
	mustEdge(t, g, g1, g2, 10)
	mustEdge(t, g, g2, c2, 10)
	res, err := Coarsen(g, Options{Target: 1})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	// CPU and GPU ops cannot merge, so at least 3 nodes must remain
	// (cpu1, merged gpu, cpu2) and every coarse node is kind-pure.
	if res.Coarse.NumNodes() != 3 {
		t.Fatalf("coarse nodes = %d, want 3", res.Coarse.NumNodes())
	}
	for c, ms := range res.Members {
		var kind graph.OpKind
		for i, m := range ms {
			orig, _ := g.Node(m)
			if i == 0 {
				kind = orig.Kind
			} else if orig.Kind != kind {
				t.Fatalf("coarse node %d mixes kinds", c)
			}
		}
	}
}

func TestColocGroupsRespected(t *testing.T) {
	g := graph.New(3)
	a := g.AddNode(graph.Node{Name: "a", Kind: graph.KindGPU, Coloc: "g1", Cost: time.Microsecond})
	b := g.AddNode(graph.Node{Name: "b", Kind: graph.KindGPU, Coloc: "g2", Cost: time.Microsecond})
	c := g.AddNode(graph.Node{Name: "c", Kind: graph.KindGPU, Cost: time.Microsecond})
	mustEdge(t, g, a, b, 10)
	mustEdge(t, g, b, c, 10)
	res, err := Coarsen(g, Options{Target: 1})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	// a (g1) and b (g2) must never merge; b and c may (c has no group).
	for _, ms := range res.Members {
		hasA, hasB := false, false
		for _, m := range ms {
			if m == a {
				hasA = true
			}
			if m == b {
				hasB = true
			}
		}
		if hasA && hasB {
			t.Fatal("nodes from different coloc groups merged")
		}
	}
}

func TestCoarseOfIsConsistent(t *testing.T) {
	g := figure6(t)
	res, err := Coarsen(g, Options{Target: 2})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if len(res.CoarseOf) != g.NumNodes() {
		t.Fatalf("CoarseOf length %d", len(res.CoarseOf))
	}
	for c, ms := range res.Members {
		for _, m := range ms {
			if res.CoarseOf[m] != graph.NodeID(c) {
				t.Fatalf("CoarseOf[%d] = %d, want %d", m, res.CoarseOf[m], c)
			}
		}
	}
}

func TestEdgePriorityPrefersBigTransfers(t *testing.T) {
	// Diamond with one huge edge: A -big-> B, A -small-> C, B,C -> D.
	// The first merge must contract the big edge (A,B).
	g := graph.New(4)
	a := g.AddNode(gpuNode("A", time.Microsecond))
	b := g.AddNode(gpuNode("B", time.Microsecond))
	c := g.AddNode(gpuNode("C", time.Microsecond))
	d := g.AddNode(gpuNode("D", time.Microsecond))
	mustEdge(t, g, a, b, 1<<20)
	mustEdge(t, g, a, c, 16)
	mustEdge(t, g, b, d, 16)
	mustEdge(t, g, c, d, 16)
	res, err := Coarsen(g, Options{Target: 3})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if res.Coarse.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", res.Coarse.NumNodes())
	}
	if res.CoarseOf[a] != res.CoarseOf[b] {
		t.Fatalf("big edge (A,B) not contracted first: %v", res.CoarseOf)
	}
}

func TestTargetRespectedOnGrid(t *testing.T) {
	// An LSTM-like W×H grid graph.
	const w, h = 8, 8
	g := graph.New(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for i := 0; i < w*h; i++ {
		g.AddNode(gpuNode("cell", time.Microsecond))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				mustEdge(t, g, id(x, y), id(x+1, y), 128)
			}
			if y+1 < h {
				mustEdge(t, g, id(x, y), id(x, y+1), 256)
			}
		}
	}
	res, err := Coarsen(g, Options{Target: 8})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if res.Coarse.NumNodes() > 8 {
		t.Fatalf("coarse nodes = %d, want <= 8", res.Coarse.NumNodes())
	}
	if err := res.Coarse.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Conservation: total cost and memory preserved.
	if res.Coarse.TotalCost() != g.TotalCost() {
		t.Errorf("cost not conserved: %v vs %v", res.Coarse.TotalCost(), g.TotalCost())
	}
	if res.Coarse.TotalMemory() != g.TotalMemory() {
		t.Errorf("memory not conserved")
	}
}

func randomDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{
			Name: "op", Kind: graph.KindGPU,
			Cost:   time.Duration(1+rng.Intn(500)) * time.Microsecond,
			Memory: int64(rng.Intn(1 << 12)),
			Layer:  -1,
		})
	}
	m := 2 * n
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		_ = g.AddEdge(graph.NodeID(i), graph.NodeID(j), int64(rng.Intn(1<<16)))
	}
	return g
}

// TestPropertyCoarseningInvariants checks on random DAGs that the coarse
// graph (a) is acyclic, (b) partitions the original nodes exactly,
// (c) conserves cost and memory, and (d) preserves precedence: for every
// original edge, either both endpoints share a coarse node or the coarse
// nodes are connected in the same direction.
func TestPropertyCoarseningInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		g := randomDAG(rng, n)
		target := 1 + rng.Intn(n)
		res, err := Coarsen(g, Options{Target: target})
		if err != nil {
			return false
		}
		if res.Coarse.Validate() != nil {
			return false
		}
		seen := make(map[graph.NodeID]bool)
		count := 0
		for _, ms := range res.Members {
			for _, m := range ms {
				if seen[m] {
					return false
				}
				seen[m] = true
				count++
			}
		}
		if count != n {
			return false
		}
		if res.Coarse.TotalCost() != g.TotalCost() || res.Coarse.TotalMemory() != g.TotalMemory() {
			return false
		}
		for _, e := range g.Edges() {
			cf, ct := res.CoarseOf[e.From], res.CoarseOf[e.To]
			if cf == ct {
				continue
			}
			if !res.Coarse.Reachable(cf, ct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenRejectsCyclicInput(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode(gpuNode("a", 0))
	b := g.AddNode(gpuNode("b", 0))
	mustEdge(t, g, a, b, 1)
	mustEdge(t, g, b, a, 1)
	if _, err := Coarsen(g, Options{Target: 1}); err == nil {
		t.Fatal("expected error for cyclic input")
	}
}

func TestBlobWeightCapsRespected(t *testing.T) {
	// A long chain of heavy ops: uncapped coarsening would collapse it
	// into one mega-blob; caps must keep every blob under the limit.
	g := graph.New(64)
	prev := g.AddNode(gpuNode("n0", time.Millisecond))
	for i := 1; i < 64; i++ {
		cur := g.AddNode(gpuNode("n", time.Millisecond))
		mustEdge(t, g, prev, cur, 1<<20)
		prev = cur
	}
	capCost := 8 * time.Millisecond
	res, err := Coarsen(g, Options{Target: 1, MaxNodeCost: capCost, MaxNodeMemory: 1 << 40})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	if res.Coarse.NumNodes() < 8 {
		t.Fatalf("coarse size %d below the cap-implied floor of 8", res.Coarse.NumNodes())
	}
	for _, nd := range res.Coarse.Nodes() {
		if nd.Cost > capCost {
			t.Errorf("blob cost %v exceeds cap %v", nd.Cost, capCost)
		}
	}
}

func TestBlobMemoryCapRespected(t *testing.T) {
	g := graph.New(16)
	prev := g.AddNode(gpuNode("n0", time.Microsecond))
	for i := 1; i < 16; i++ {
		cur := g.AddNode(gpuNode("n", time.Microsecond))
		mustEdge(t, g, prev, cur, 64)
		prev = cur
	}
	// Every node carries 100 bytes (from gpuNode); cap blobs at 250.
	res, err := Coarsen(g, Options{Target: 1, MaxNodeCost: time.Hour, MaxNodeMemory: 250})
	if err != nil {
		t.Fatalf("Coarsen: %v", err)
	}
	for _, nd := range res.Coarse.Nodes() {
		if nd.Memory > 250 {
			t.Errorf("blob memory %d exceeds cap 250", nd.Memory)
		}
	}
}

func TestDefaultCapsScaleWithTarget(t *testing.T) {
	// With default caps (4x average at target), a fine target must
	// yield strictly more blobs than a very coarse one on the same
	// graph.
	g := graph.New(128)
	prev := g.AddNode(gpuNode("n0", 10*time.Microsecond))
	for i := 1; i < 128; i++ {
		cur := g.AddNode(gpuNode("n", 10*time.Microsecond))
		mustEdge(t, g, prev, cur, 64)
		prev = cur
	}
	coarse, err := Coarsen(g, Options{Target: 4})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Coarsen(g, Options{Target: 64})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Coarse.NumNodes() <= coarse.Coarse.NumNodes() {
		t.Errorf("fine target %d blobs vs coarse target %d blobs",
			fine.Coarse.NumNodes(), coarse.Coarse.NumNodes())
	}
}
