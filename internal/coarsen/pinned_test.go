package coarsen_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pesto/internal/coarsen"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/models"
)

// coarsenPinnedFile records one digest of Coarsen's full Result per
// (graph, target). Like the other *_pinned.txt files it is a record of
// behaviour, not a golden to refresh: scripts/pin.sh regenerates it on
// an export of a base commit after a deliberate change.
var coarsenPinnedFile = filepath.Join("testdata", "coarsen_pinned.txt")

// pinCase is one coarsening input of the pinned corpus.
type pinCase struct {
	name string
	g    *graph.Graph
}

// pinFamilies is every generator family, Pipeline included.
func pinFamilies() []gen.Family { return append(gen.Families(), gen.Pipeline) }

// genPinCases builds every generator family at seeds 1–3 and the given
// sizes.
func genPinCases(tb testing.TB, sizes []int) []pinCase {
	tb.Helper()
	var out []pinCase
	for _, fam := range pinFamilies() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, n := range sizes {
				g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: n})
				if err != nil {
					tb.Fatalf("%v/s%d/n%d: %v", fam, seed, n, err)
				}
				out = append(out, pinCase{fmt.Sprintf("%v/s%d/n%d", fam, seed, n), g})
			}
		}
	}
	return out
}

// variantPinCases builds the small and the paper-scale model variants.
func variantPinCases(tb testing.TB) []pinCase {
	tb.Helper()
	var out []pinCase
	for _, v := range append(models.SmallVariants(), models.PaperVariants()...) {
		g, err := v.Build()
		if err != nil {
			tb.Fatalf("%s: %v", v.Name, err)
		}
		out = append(out, pinCase{v.Name, g})
	}
	return out
}

// resultDigest is the SHA-256 of a canonical encoding of res: every
// coarse node's fields, its Succ and Pred lists in order with bytes,
// Members, CoarseOf and Iterations.
func resultDigest(res *coarsen.Result) string {
	h := sha256.New()
	var b [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	cg := res.Coarse
	num(int64(cg.NumNodes()))
	for _, nd := range cg.Nodes() {
		num(int64(nd.ID))
		str(nd.Name)
		num(int64(nd.Kind))
		num(int64(nd.Cost))
		num(nd.Memory)
		str(nd.Coloc)
		num(int64(nd.Layer))
		num(int64(nd.Branch))
		succ, pred := cg.Succ(nd.ID), cg.Pred(nd.ID)
		num(int64(len(succ)))
		for _, e := range succ {
			num(int64(e.From))
			num(int64(e.To))
			num(e.Bytes)
		}
		num(int64(len(pred)))
		for _, e := range pred {
			num(int64(e.From))
			num(int64(e.To))
			num(e.Bytes)
		}
	}
	num(int64(len(res.Members)))
	for _, ms := range res.Members {
		num(int64(len(ms)))
		for _, m := range ms {
			num(int64(m))
		}
	}
	num(int64(len(res.CoarseOf)))
	for _, c := range res.CoarseOf {
		num(int64(c))
	}
	num(int64(res.Iterations))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCoarsenPinned pins Coarsen's Result, digest by digest, on every
// generator family × seeds 1–3 × 8…400 operations at targets 8, 16, 48
// and 192, and on the small and paper-scale model variants at targets
// 48, 64, 192 and 200.
func TestCoarsenPinned(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# coarsen.Coarsen results: case target coarse-nodes iterations sha256\n")
	pin := func(cases []pinCase, targets []int) {
		for _, c := range cases {
			for _, target := range targets {
				res, err := coarsen.Coarsen(c.g, coarsen.Options{Target: target})
				if err != nil {
					t.Fatalf("%s target %d: %v", c.name, target, err)
				}
				fmt.Fprintf(&buf, "%s t%d %d %d %s\n", c.name, target, res.Coarse.NumNodes(), res.Iterations, resultDigest(res))
			}
		}
	}
	pin(genPinCases(t, []int{8, 16, 48, 96, 200, 400}), []int{8, 16, 48, 192})
	pin(variantPinCases(t), []int{48, 64, 192, 200})
	got := buf.Bytes()
	if os.Getenv("PESTO_PIN_UPDATE") != "" {
		if err := os.WriteFile(coarsenPinnedFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(coarsenPinnedFile)
	if err != nil {
		t.Fatalf("%v\ncomputed listing:\n%s", err, got)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		if len(gl) != len(wl) {
			t.Errorf("got %d lines, want %d", len(gl), len(wl))
		}
		for i, shown := 0, 0; i < len(gl) && i < len(wl) && shown < 20; i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("line %d: got %s, want %s", i+1, gl[i], wl[i])
				shown++
			}
		}
	}
}
