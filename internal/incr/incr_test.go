package incr

import (
	"errors"
	"testing"
	"time"

	"pesto/internal/coarsen"
	"pesto/internal/graph"
)

// chain builds a→b→c→... with unit costs and 1KiB edges.
func chain(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: "op", Kind: graph.KindGPU, Cost: time.Millisecond, Memory: 1 << 20, Layer: i})
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1024); err != nil {
			panic(err)
		}
	}
	return g
}

func TestApplyInsert(t *testing.T) {
	g := chain(3)
	out, m, err := Apply(g, Edit{Kind: KindInsert, Preds: []int{0}, Succs: []int{2}, CostNs: 500, Memory: 64, Bytes: 9})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", out.NumNodes())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if m[3] != -1 || m[0] != 0 || m[2] != 2 {
		t.Fatalf("node map = %v", m)
	}
	if _, ok := out.EdgeBetween(0, 3); !ok {
		t.Fatal("missing pred edge")
	}
	if e, ok := out.EdgeBetween(3, 2); !ok || e.Bytes != 9 {
		t.Fatalf("succ edge = %v %v", e, ok)
	}
	// g untouched.
	if g.NumNodes() != 3 {
		t.Fatal("input graph mutated")
	}

	// A succ that reaches a pred must be rejected.
	if _, _, err := Apply(g, Edit{Kind: KindInsert, Preds: []int{2}, Succs: []int{0}}); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("cycle insert err = %v", err)
	}
}

func TestApplyDelete(t *testing.T) {
	g := chain(3)
	out, m, err := Apply(g, Edit{Kind: KindDelete, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", out.NumNodes())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Precedence bridged: old 0 → old 2 (now 0 → 1).
	if _, ok := out.EdgeBetween(0, 1); !ok {
		t.Fatal("missing bridge edge")
	}
	if m[0] != 0 || m[1] != 2 {
		t.Fatalf("node map = %v", m)
	}
	if _, _, err := Apply(g, Edit{Kind: KindDelete, Node: 99}); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("unknown node err = %v", err)
	}
}

func TestApplyReweightAndRewire(t *testing.T) {
	g := chain(4)
	out, _, err := Apply(g, Edit{Kind: KindReweight, Node: 2, CostNs: int64(5 * time.Millisecond), Memory: 77})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := out.Node(2)
	if n.Cost != 5*time.Millisecond || n.Memory != 77 {
		t.Fatalf("reweight node = %+v", n)
	}

	out, _, err = Apply(g, Edit{Kind: KindReweightEdge, From: 1, To: 2, Bytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := out.EdgeBetween(1, 2); e.Bytes != 4096 {
		t.Fatalf("edge bytes = %d", e.Bytes)
	}

	// Rewire 2→3 to come from 0 instead.
	out, _, err = Apply(g, Edit{Kind: KindRewire, From: 2, To: 3, NewFrom: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := out.EdgeBetween(2, 3); ok {
		t.Fatal("old edge survived rewire")
	}
	if _, ok := out.EdgeBetween(0, 3); !ok {
		t.Fatal("new edge missing")
	}
	// Rewiring 0→1 to come from 3 would cycle (1 reaches 3).
	if _, _, err := Apply(g, Edit{Kind: KindRewire, From: 0, To: 1, NewFrom: 3}); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("cycle rewire err = %v", err)
	}
}

func TestApplyGrowLayer(t *testing.T) {
	g := chain(3)
	out, m, err := Apply(g, Edit{Kind: KindGrowLayer, Width: 4, CostNs: 100, Bytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() != 7 {
		t.Fatalf("nodes = %d, want 7", out.NumNodes())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 7; i++ {
		if m[i] != -1 {
			t.Fatalf("grown node %d mapped to %d", i, m[i])
		}
		if out.InDegree(graph.NodeID(i)) == 0 {
			t.Fatalf("grown node %d has no predecessor", i)
		}
	}
}

func TestApplyAllComposesMaps(t *testing.T) {
	g := chain(4)
	edits := []Edit{
		{Kind: KindDelete, Node: 1},                     // 0,2,3 survive as 0,1,2
		{Kind: KindInsert, Preds: []int{0}, CostNs: 10}, // new node 3
		{Kind: KindReweight, Node: 2, CostNs: int64(2 * time.Millisecond)},
	}
	out, m, err := ApplyAll(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumNodes() != 4 {
		t.Fatalf("nodes = %d", out.NumNodes())
	}
	want := []graph.NodeID{0, 2, 3, -1}
	for i, w := range want {
		if m[i] != w {
			t.Fatalf("m[%d] = %d, want %d (full %v)", i, m[i], w, m)
		}
	}
	// Determinism: same edits, same bytes.
	out2, _, err := ApplyAll(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint() != out2.Fingerprint() {
		t.Fatal("ApplyAll not deterministic")
	}
}

func TestCompareIdentity(t *testing.T) {
	g := chain(5)
	if d := Compare(g, g, nil); !d.Empty() {
		t.Fatalf("diff(g,g) = %+v", d)
	}
	idm := identityMap(g.NumNodes())
	if d := Compare(g, g.Clone(), idm); !d.Empty() {
		t.Fatal("diff(g, clone) not empty")
	}
}

func TestCompareDetectsChanges(t *testing.T) {
	g := chain(5)

	// Field change.
	e := g.Clone()
	e.SetCost(2, 9*time.Millisecond)
	d := Compare(g, e, nil)
	if d.ChangedNodes != 1 || len(d.Dirty) != 1 || d.Dirty[0] != 2 {
		t.Fatalf("cost diff = %+v", d)
	}

	// Edge byte change dirties both endpoints.
	e = g.Clone()
	e.SetEdgeBytes(1, 2, 9999)
	d = Compare(g, e, nil)
	if d.ChangedEdges != 1 || len(d.Dirty) != 2 {
		t.Fatalf("edge diff = %+v", d)
	}

	// Insert via Apply: new node and its neighbors dirty.
	e2, m, err := Apply(g, Edit{Kind: KindInsert, Preds: []int{0}, Succs: []int{4}, CostNs: 5})
	if err != nil {
		t.Fatal(err)
	}
	d = Compare(g, e2, m)
	if d.AddedNodes != 1 || d.AddedEdges != 2 {
		t.Fatalf("insert diff = %+v", d)
	}
	wantDirty := map[graph.NodeID]bool{0: true, 4: true, 5: true}
	for _, id := range d.Dirty {
		if !wantDirty[id] {
			t.Fatalf("unexpected dirty op %d in %v", id, d.Dirty)
		}
		delete(wantDirty, id)
	}
	if len(wantDirty) != 0 {
		t.Fatalf("missing dirty ops %v", wantDirty)
	}

	// Delete via Apply: surviving neighbors dirty.
	e3, m3, err := Apply(g, Edit{Kind: KindDelete, Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	d = Compare(g, e3, m3)
	if d.RemovedNodes != 1 {
		t.Fatalf("delete diff = %+v", d)
	}
	// Old neighbors 1 and 3 survive as 1 and 2.
	got := map[graph.NodeID]bool{}
	for _, id := range d.Dirty {
		got[id] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("delete dirty = %v, want {1,2}", d.Dirty)
	}
}

func TestCompareArbitraryMapSafe(t *testing.T) {
	g := chain(3)
	e := chain(5)
	// Garbage maps must not panic and must classify unmapped as added.
	for _, m := range [][]graph.NodeID{
		nil,
		{99, -5, 0},
		{0, 0, 0, 0, 0}, // duplicate claims
		{2, 1, 0},
	} {
		d := Compare(g, e, m)
		if len(d.Dirty) == 0 && e.NumNodes() != g.NumNodes() {
			t.Fatalf("map %v: expected some dirt, got %+v", m, d)
		}
	}
}

func TestDirtyGroupsClosure(t *testing.T) {
	// A chain coarsens predictably; with a tiny target every node is
	// its own group when the graph is small, and the whole chain is
	// the critical path — so the neighbor closure must pull in the
	// groups adjacent to the dirty one.
	g := chain(6)
	res, err := coarsen.Coarsen(g, coarsen.Options{Target: 6})
	if err != nil {
		t.Fatal(err)
	}
	dirty := []graph.NodeID{3}
	groups := DirtyGroups(g, res, dirty)
	want := map[graph.NodeID]bool{res.CoarseOf[3]: true}
	// Chain → every node on the critical path, so both coarse
	// neighbors join the closure.
	for _, e := range res.Coarse.Succ(res.CoarseOf[3]) {
		want[e.To] = true
	}
	for _, e := range res.Coarse.Pred(res.CoarseOf[3]) {
		want[e.From] = true
	}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v, want keys %v", groups, want)
	}
	for _, c := range groups {
		if !want[c] {
			t.Fatalf("unexpected group %d in %v", c, groups)
		}
	}
}

func TestGroupFingerprintStableUnderRemoteEdits(t *testing.T) {
	// Editing one end of a chain must not move the sub-fingerprint of
	// a group at the other end, even though absolute fingerprints and
	// node IDs around it change.
	g := chain(8)
	members := []graph.NodeID{5, 6}
	before := coarsen.GroupFingerprint(g, members)

	e, m, err := Apply(g, Edit{Kind: KindDelete, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Members shift down by one under the delete's node map.
	var shifted []graph.NodeID
	for newID, oldID := range m {
		if oldID == 5 || oldID == 6 {
			shifted = append(shifted, graph.NodeID(newID))
		}
	}
	after := coarsen.GroupFingerprint(e, shifted)
	if before != after {
		t.Fatal("sub-fingerprint moved under a remote edit")
	}

	// And a local edit must move it.
	e2 := g.Clone()
	e2.SetCost(5, 42*time.Millisecond)
	if coarsen.GroupFingerprint(e2, members) == before {
		t.Fatal("sub-fingerprint blind to a member cost change")
	}
}

func TestParseEditsAndFingerprint(t *testing.T) {
	edits, err := ParseEdits([]byte(`[{"kind":"reweight","node":1,"costNs":100}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 1 || edits[0].Kind != KindReweight {
		t.Fatalf("edits = %+v", edits)
	}
	if _, err := ParseEdits([]byte(`[{"kind":"x","bogus":1}]`)); !errors.Is(err, ErrBadEdit) {
		t.Fatalf("unknown field err = %v", err)
	}
	for _, trailing := range []string{`[] trailing`, `[]]`, `[]}`} {
		if _, err := ParseEdits([]byte(trailing)); !errors.Is(err, ErrBadEdit) {
			t.Fatalf("%s: trailing err = %v", trailing, err)
		}
	}
	if _, err := ParseEdits([]byte("[]\n\t ")); err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}

	a := Fingerprint(edits)
	b := Fingerprint([]Edit{{Kind: KindReweight, Node: 1, CostNs: 100}})
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	c := Fingerprint([]Edit{{Kind: KindReweight, Node: 2, CostNs: 100}})
	if a == c {
		t.Fatal("fingerprint blind to node field")
	}
}
