package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// fpGraph builds a small graph exercising every hashed field: mixed
// kinds, costs, memories, colocation, layers, branches and a diamond
// edge pattern with distinct tensor sizes.
func fpGraph(t *testing.T) *Graph {
	t.Helper()
	g := New(5)
	g.AddNode(Node{Name: "in", Kind: KindCPU, Cost: 10 * time.Microsecond, Layer: 0, Branch: -1})
	g.AddNode(Node{Name: "a", Kind: KindGPU, Cost: 40 * time.Microsecond, Memory: 1 << 20, Coloc: "grp", Layer: 1, Branch: 0})
	g.AddNode(Node{Name: "b", Kind: KindGPU, Cost: 30 * time.Microsecond, Memory: 2 << 20, Coloc: "grp", Layer: 1, Branch: 1})
	g.AddNode(Node{Name: "c", Kind: KindGPU, Cost: 50 * time.Microsecond, Memory: 1 << 19, Layer: 2, Branch: -1})
	g.AddNode(Node{Name: "k", Kind: KindKernel, Cost: 2 * time.Microsecond, Layer: 2, Branch: -1})
	mustEdge := func(from, to NodeID, bytes int64) {
		t.Helper()
		if err := g.AddEdge(from, to, bytes); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", from, to, err)
		}
	}
	mustEdge(0, 1, 4096)
	mustEdge(0, 2, 8192)
	mustEdge(1, 3, 1024)
	mustEdge(2, 3, 2048)
	mustEdge(4, 3, 0)
	return g
}

func TestFingerprintCloneStable(t *testing.T) {
	g := fpGraph(t)
	want := g.Fingerprint()
	c := g.Clone()
	if got := c.Fingerprint(); got != want {
		t.Fatalf("Clone changed fingerprint: %x vs %x", got, want)
	}
	// Hashing must not mutate the graph: fingerprint again and compare
	// the full structure.
	if got := g.Fingerprint(); got != want {
		t.Fatalf("second Fingerprint differs: %x vs %x", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid after fingerprinting: %v", err)
	}
}

func TestFingerprintEdgeInsertionOrderIrrelevant(t *testing.T) {
	g := fpGraph(t)
	// Same nodes, edges added in a different order.
	h := New(5)
	for _, n := range g.Nodes() {
		h.AddNode(Node{Name: n.Name, Kind: n.Kind, Cost: n.Cost, Memory: n.Memory, Coloc: n.Coloc, Layer: n.Layer, Branch: n.Branch})
	}
	edges := g.Edges()
	for i := len(edges) - 1; i >= 0; i-- {
		if err := h.AddEdge(edges[i].From, edges[i].To, edges[i].Bytes); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if g.Fingerprint() != h.Fingerprint() {
		t.Fatal("edge insertion order changed the fingerprint")
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	g := fpGraph(t)
	want := g.Fingerprint()
	h := g.Clone()
	h.nodes[1].Name = "renamed"
	if got := h.Fingerprint(); got != want {
		t.Fatal("node name affected the fingerprint; names never reach placement")
	}
}

// TestFingerprintSensitivity proves the hash reacts to every field the
// placement pipeline consumes: a change in any of them must change the
// fingerprint, or the plan cache would serve a stale plan.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpGraph(t)
	want := base.Fingerprint()
	mutations := map[string]func(g *Graph){
		"kind":       func(g *Graph) { g.nodes[3].Kind = KindCPU },
		"cost":       func(g *Graph) { g.nodes[1].Cost += time.Nanosecond },
		"memory":     func(g *Graph) { g.nodes[2].Memory++ },
		"coloc-set":  func(g *Graph) { g.nodes[3].Coloc = "grp" },
		"coloc-edit": func(g *Graph) { g.nodes[1].Coloc = "grq" },
		"layer":      func(g *Graph) { g.nodes[2].Layer = 7 },
		"branch":     func(g *Graph) { g.nodes[1].Branch = 2 },
		"edge-bytes": func(g *Graph) { g.succ[0][0].Bytes++; g.pred[1][0].Bytes++ },
		"edge-added": func(g *Graph) {
			if err := g.AddEdge(1, 4, 16); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		},
		"edge-endpoint": func(g *Graph) {
			// Rewire 4→3 to 0→3 keeping counts equal.
			g.succ[4] = nil
			g.pred[3] = g.pred[3][:2]
			if err := g.AddEdge(0, 3, 0); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		},
		"node-added": func(g *Graph) { g.AddNode(Node{Kind: KindGPU, Cost: time.Microsecond}) },
	}
	for name, mutate := range mutations {
		c := base.Clone()
		mutate(c)
		if c.Fingerprint() == want {
			t.Errorf("%s: mutation did not change the fingerprint", name)
		}
	}
}

func TestFingerprintJSONRoundTripStable(t *testing.T) {
	g := fpGraph(t)
	want := g.Fingerprint()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got := back.Fingerprint(); got != want {
		t.Fatalf("JSON round trip changed fingerprint: %x vs %x", got, want)
	}
}

// TestFingerprintColocBoundary guards the length-prefixed string
// encoding: moving bytes between adjacent variable-length fields must
// not collide.
func TestFingerprintColocBoundary(t *testing.T) {
	mk := func(coloc string, layer int) *Graph {
		g := New(1)
		g.AddNode(Node{Kind: KindGPU, Cost: time.Microsecond, Coloc: coloc, Layer: layer})
		return g
	}
	if mk("ab", 0).Fingerprint() == mk("a", 0).Fingerprint() {
		t.Fatal("coloc length not bound into the hash")
	}
	if mk("", 1).Fingerprint() == mk("", 0).Fingerprint() {
		t.Fatal("layer not bound into the hash")
	}
}

// TestFingerprintPinned pins digests: cached plans are keyed by them, so
// the hash must not change without a fingerprintVersion bump. The
// second graph's colocation groups cross the hash writer's buffer
// boundaries.
func TestFingerprintPinned(t *testing.T) {
	long := New(3)
	long.AddNode(Node{Kind: KindGPU, Cost: time.Microsecond, Coloc: strings.Repeat("x", 509)})
	long.AddNode(Node{Kind: KindCPU, Cost: 2 * time.Microsecond, Coloc: strings.Repeat("yz", 700), Layer: -1, Branch: 3})
	long.AddNode(Node{Kind: KindKernel, Memory: 1 << 40})
	for _, e := range []Edge{{0, 2, 9}, {1, 2, 1 << 33}} {
		if err := long.AddEdge(e.From, e.To, e.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range []struct {
		g    *Graph
		want string
	}{
		{fpGraph(t), "985e4eac1bb1910e925ff4e9d82590a5d30153464d923e2a2c5c502c7d60b80e"},
		{long, "009bb4de77cf0bac835b102030e948b7dd0500e673fe7cc9d844e5ce285990e1"},
		{randomDAG(rand.New(rand.NewSource(1)), 40, 60), "7ee65446dba5b3fd85b3cf159e19ce35f0a8eaea5bb09fee5b03c3318727affb"},
	} {
		if got := fmt.Sprintf("%x", c.g.Fingerprint()); got != c.want {
			t.Errorf("graph %d: fingerprint %s, want %s", i, got, c.want)
		}
	}
}
