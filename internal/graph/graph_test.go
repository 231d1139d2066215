package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// diamond builds A -> {B, C} -> D.
func diamond(t *testing.T) (*Graph, [4]NodeID) {
	t.Helper()
	g := New(4)
	var ids [4]NodeID
	for i, name := range []string{"A", "B", "C", "D"} {
		ids[i] = g.AddNode(Node{Name: name, Kind: KindGPU, Cost: time.Duration(i+1) * time.Microsecond})
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(ids[e[0]], ids[e[1]], 100); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g, ids
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0)
	for i := 0; i < 5; i++ {
		if id := g.AddNode(Node{Name: "x"}); int(id) != i {
			t.Fatalf("node %d got id %d", i, id)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgeRejectsBadEdges(t *testing.T) {
	g := New(2)
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	if err := g.AddEdge(a, a, 0); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: got %v, want ErrSelfLoop", err)
	}
	if err := g.AddEdge(a, 99, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: got %v, want ErrUnknownNode", err)
	}
	if err := g.AddEdge(a, b, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(a, b, 1); !errors.Is(err, ErrDupEdge) {
		t.Errorf("duplicate: got %v, want ErrDupEdge", err)
	}
}

// TestAdjacencyViewsAreClipped: Succ and Pred return views of the
// graph's adjacency, and Nodes one of its node list; appending to one
// must copy rather than write into spare capacity the graph's next
// AddEdge or AddNode would reuse.
func TestAdjacencyViewsAreClipped(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddNode(Node{Name: "n"})
	}
	// Node 0 gets three successors and node 5 three predecessors, so
	// both adjacency slices have grown to capacity 4 with one slot
	// spare.
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 5}, {2, 5}, {3, 5}} {
		if err := g.AddEdge(e[0], e[1], 8); err != nil {
			t.Fatal(err)
		}
	}
	succ := append(g.Succ(0), Edge{From: 0, To: 99})
	pred := append(g.Pred(5), Edge{From: 99, To: 5})
	if len(g.Succ(0)) != 3 || len(g.Pred(5)) != 3 {
		t.Fatalf("appending to a view changed the graph: succ %v pred %v", g.Succ(0), g.Pred(5))
	}
	if err := g.AddEdge(0, 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(4, 5, 8); err != nil {
		t.Fatal(err)
	}
	if succ[3].To != 99 || pred[3].From != 99 {
		t.Fatalf("a view shares spare capacity with the graph: succ[3]=%v pred[3]=%v", succ[3], pred[3])
	}
	if got := g.Succ(0); len(got) != 4 || got[3].To != 4 {
		t.Fatalf("Succ(0) = %v after AddEdge(0, 4)", got)
	}
	if got := g.Pred(5); len(got) != 4 || got[3].From != 4 {
		t.Fatalf("Pred(5) = %v after AddEdge(4, 5)", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// New(8) leaves the node list two slots spare.
	h := New(8)
	for i := 0; i < 6; i++ {
		h.AddNode(Node{Name: "n"})
	}
	nodes := append(h.Nodes(), Node{Name: "view"})
	if len(h.Nodes()) != 6 {
		t.Fatalf("appending to a Nodes view changed the graph: %v", h.Nodes())
	}
	h.AddNode(Node{Name: "graph"})
	if nodes[6].Name != "view" {
		t.Fatalf("a Nodes view shares spare capacity with the graph: nodes[6]=%v", nodes[6])
	}
	if got := h.Nodes(); len(got) != 7 || got[6].Name != "graph" {
		t.Fatalf("Nodes() = %v after AddNode", got)
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g, ids := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[NodeID]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge (%d,%d) violates order", e.From, e.To)
		}
	}
	if pos[ids[0]] != 0 || pos[ids[3]] != 3 {
		t.Errorf("unexpected order %v", order)
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New(3)
	a := g.AddNode(Node{})
	b := g.AddNode(Node{})
	c := g.AddNode(Node{})
	for _, e := range [][2]NodeID{{a, b}, {b, c}, {c, a}} {
		if err := g.AddEdge(e[0], e[1], 0); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Fatalf("got %v, want ErrCycle", err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate: got %v, want ErrCycle", err)
	}
}

func TestCriticalPath(t *testing.T) {
	g, ids := diamond(t)
	// Costs: A=1us B=2us C=3us D=4us -> critical path A,C,D = 8us.
	cp, path, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if cp != 8*time.Microsecond {
		t.Errorf("critical path = %v, want 8µs", cp)
	}
	want := []NodeID{ids[0], ids[2], ids[3]}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestReachable(t *testing.T) {
	g, ids := diamond(t)
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{ids[0], ids[3], true},
		{ids[1], ids[2], false},
		{ids[3], ids[0], false},
		{ids[2], ids[2], true},
	}
	for _, c := range cases {
		if got := g.Reachable(c.u, c.v); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestRootsLeavesDegrees(t *testing.T) {
	g, ids := diamond(t)
	if leaves := g.Leaves(); len(leaves) != 1 || leaves[0] != ids[3] {
		t.Errorf("Leaves = %v", leaves)
	}
	if g.OutDegree(ids[0]) != 2 || g.InDegree(ids[3]) != 2 {
		t.Errorf("degrees wrong: out(A)=%d in(D)=%d", g.OutDegree(ids[0]), g.InDegree(ids[3]))
	}
	for i, id := range ids {
		if root := g.InDegree(id) == 0; root != (i == 0) {
			t.Errorf("node %d: in-degree %d, want only the first node to be a root", i, g.InDegree(id))
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := diamond(t)
	c := g.Clone()
	if err := c.AddEdge(ids[1], ids[2], 7); err != nil {
		t.Fatalf("AddEdge on clone: %v", err)
	}
	if _, ok := g.EdgeBetween(ids[1], ids[2]); ok {
		t.Error("mutating clone leaked into original")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

func TestTotals(t *testing.T) {
	g, _ := diamond(t)
	if got := g.TotalCost(); got != 10*time.Microsecond {
		t.Errorf("TotalCost = %v, want 10µs", got)
	}
}

func TestSetCost(t *testing.T) {
	g, ids := diamond(t)
	if err := g.SetCost(ids[1], 50*time.Microsecond); err != nil {
		t.Fatalf("SetCost: %v", err)
	}
	n, _ := g.Node(ids[1])
	if n.Cost != 50*time.Microsecond {
		t.Errorf("cost = %v", n.Cost)
	}
	if err := g.SetCost(999, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SetCost(999) = %v, want ErrUnknownNode", err)
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := diamond(t)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "toy"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "n0 -> n1", "100B"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// randomDAG builds a DAG by only adding forward edges over a random
// permutation, guaranteeing acyclicity by construction.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Node{Name: "op", Kind: KindGPU, Cost: time.Duration(rng.Intn(1000)) * time.Microsecond})
	}
	perm := rng.Perm(n)
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if perm[i] > perm[j] {
			i, j = j, i
		}
		_ = g.AddEdge(NodeID(i), NodeID(j), int64(rng.Intn(1<<16)))
	}
	return g
}

func TestPropertyTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := randomDAG(rng, n, 3*n)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[NodeID]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCriticalPathAtLeastMaxCostAtMostTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomDAG(rng, n, 2*n)
		cp, path, err := g.CriticalPath()
		if err != nil {
			return false
		}
		var maxCost, pathCost time.Duration
		for _, nd := range g.Nodes() {
			if nd.Cost > maxCost {
				maxCost = nd.Cost
			}
		}
		for _, id := range path {
			nd, _ := g.Node(id)
			pathCost += nd.Cost
		}
		return cp >= maxCost && cp <= g.TotalCost() && cp == pathCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
