package coarsen

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pesto/internal/graph"
)

// diamond builds A -> {B, C} -> D.
func diamond(t *testing.T) (*graph.Graph, [4]graph.NodeID) {
	t.Helper()
	g := graph.New(4)
	var ids [4]graph.NodeID
	for i, name := range []string{"A", "B", "C", "D"} {
		ids[i] = g.AddNode(gpuNode(name, time.Duration(i+1)*time.Microsecond))
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		mustEdge(t, g, ids[e[0]], ids[e[1]], 100)
	}
	return g, ids
}

func TestHeightsDiamond(t *testing.T) {
	g, ids := diamond(t)
	s := newState(g)
	if err := s.heights(); err != nil {
		t.Fatalf("heights: %v", err)
	}
	want := []int{1, 2, 2, 3}
	for i, id := range ids {
		if s.h[id] != want[i] {
			t.Errorf("H(%d) = %d, want %d", id, s.h[id], want[i])
		}
	}
}

func TestHeightsLongestPathWins(t *testing.T) {
	// A -> B -> C and A -> C: H(C) must be 3, not 2.
	g := graph.New(3)
	a := g.AddNode(gpuNode("A", 0))
	b := g.AddNode(gpuNode("B", 0))
	c := g.AddNode(gpuNode("C", 0))
	for _, e := range [][2]graph.NodeID{{a, b}, {b, c}, {a, c}} {
		mustEdge(t, g, e[0], e[1], 0)
	}
	s := newState(g)
	if err := s.heights(); err != nil {
		t.Fatalf("heights: %v", err)
	}
	if s.h[c] != 3 {
		t.Fatalf("H(C) = %d, want 3", s.h[c])
	}
}

func TestHeightsDetectsCycle(t *testing.T) {
	g := graph.New(3)
	a := g.AddNode(gpuNode("A", 0))
	b := g.AddNode(gpuNode("B", 0))
	c := g.AddNode(gpuNode("C", 0))
	for _, e := range [][2]graph.NodeID{{a, b}, {b, c}, {c, a}} {
		mustEdge(t, g, e[0], e[1], 0)
	}
	if err := newState(g).heights(); !errors.Is(err, graph.ErrCycle) {
		t.Fatalf("heights: got %v, want ErrCycle", err)
	}
}

func TestUniquePath(t *testing.T) {
	g, ids := diamond(t)
	// Add the shortcut edge A -> D: now (A,D) is not a unique path,
	// but (B,D) still is.
	mustEdge(t, g, ids[0], ids[3], 0)
	s := newState(g)
	a, b, c, d := int(ids[0]), int(ids[1]), int(ids[2]), int(ids[3])
	if s.uniquePath(a, d) {
		t.Error("uniquePath(A,D) = true; want false")
	}
	if !s.uniquePath(b, d) {
		t.Error("uniquePath(B,D) = false; want true")
	}
	if s.uniquePath(b, c) {
		t.Error("uniquePath on a missing arc should be false")
	}
	// Contracting (B,D) leaves A -> C -> BD and A -> BD: the shortcut
	// is still not the only path, and (C,BD) still is.
	s.contract([]mergePair{{U: b, V: d}})
	if s.uniquePath(a, b) {
		t.Error("after merging (B,D): uniquePath(A,BD) = true; want false")
	}
	if !s.uniquePath(c, b) {
		t.Error("after merging (B,D): uniquePath(C,BD) = false; want true")
	}
}

func TestPropertyHeightsMonotoneAlongEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		s := newState(randomDAG(rng, n))
		if s.heights() != nil {
			return false
		}
		for u, ok := range s.alive {
			if !ok {
				continue
			}
			for _, a := range s.succ[u] {
				if s.h[a.slot] < s.h[u]+1 {
					return false
				}
			}
			if len(s.pred[u]) == 0 && s.h[u] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
