package lp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/ilp"
	"pesto/internal/lp"
	"pesto/internal/obs"
	"pesto/internal/placement"
	"pesto/internal/sim"
)

// pinnedFile holds one digest per LP solve. It is a record of the
// solver's pivot trajectory, not a golden to refresh: a faster simplex
// must reproduce it bit for bit, because branch and bound's tree, node
// counts and plans follow from every X, objective and basis it returns.
// A deliberate change to the pivoting rules replaces it with the listing
// this test prints on mismatch (or that scripts/pin.sh writes), and the
// diff is reviewed like code.
var pinnedFile = filepath.Join("testdata", "solve_pinned.txt")

// TestSolvePinned digests lp.DigestSolution over: the seeded randomLP
// corpus, each optimal instance with two warm children that split one
// variable's box; Beale's cycling LP; the exact placement model's root
// relaxation for every gen family at 8 and 12 ops, with warm children
// fixing each of the first 8 binaries to 0 and to 1 from the root
// basis; and two node-capped ilp.Solve runs, whose node relaxations,
// results and LP counters pin their dives.
func TestSolvePinned(t *testing.T) {
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
		t.Fatalf("LP solutions changed (%d vs %d lines); computed listing:\n%s", len(gl), len(wl), got)
	}
}

func pinnedListing(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# lp.Solution digests: case status iters objective sha256[:16]\n")
	for seed := int64(1); seed <= 150; seed++ {
		p := lp.RandomLP(rand.New(rand.NewSource(seed)))
		root, err := lp.Solve(p)
		writePinned(&buf, fmt.Sprintf("random/s%d", seed), root, err)
		if err != nil {
			continue
		}
		// Split the first variable with room at its midpoint, both ways.
		for v := 0; v < p.NumVars(); v++ {
			lo, hi := p.Bounds(v)
			if hi-lo <= 0.5 {
				continue
			}
			mid := math.Max(lo, math.Floor((lo+hi)/2))
			for side, b := range [2][2]float64{{lo, mid}, {mid, hi}} {
				child := p.Clone()
				if err := child.SetBounds(v, b[0], b[1]); err != nil {
					t.Fatal(err)
				}
				sol, err := lp.SolveWarmDeadlineObs(child, root.Basis, time.Time{}, nil)
				writePinned(&buf, fmt.Sprintf("random/s%d/x%d/%d", seed, v, side), sol, err)
			}
			break
		}
	}

	beale := lp.NewProblem(4)
	for v, c := range []float64{-0.75, 150, -0.02, 6} {
		_ = beale.SetObjective(v, c)
	}
	_ = beale.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 0.25}, {Var: 1, Coef: -60}, {Var: 2, Coef: -0.04}, {Var: 3, Coef: 9}}, Rel: lp.LE})
	_ = beale.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 0, Coef: 0.5}, {Var: 1, Coef: -90}, {Var: 2, Coef: -0.02}, {Var: 3, Coef: 3}}, Rel: lp.LE})
	_ = beale.AddConstraint(lp.Constraint{Terms: []lp.Term{{Var: 2, Coef: 1}}, Rel: lp.LE, RHS: 1})
	sol, err := lp.Solve(beale)
	writePinned(&buf, "beale", sol, err)

	for _, fam := range gen.Families() {
		for _, n := range []int{8, 12} {
			prob := exactModel(t, fam, n)
			name := fmt.Sprintf("exact/%v-%d", fam, n)
			root, err := lp.Solve(prob.LP)
			writePinned(&buf, name+"/root", root, err)
			if err != nil {
				continue
			}
			for k := 0; k < 8 && k < len(prob.Binary); k++ {
				for _, val := range []float64{0, 1} {
					child := prob.LP.Clone()
					if err := child.SetBounds(prob.Binary[k], val, val); err != nil {
						t.Fatal(err)
					}
					sol, err := lp.SolveWarmDeadlineObs(child, root.Basis, time.Time{}, nil)
					writePinned(&buf, fmt.Sprintf("%s/b%d=%g", name, k, val), sol, err)
				}
			}
		}
	}

	pinILP(t, &buf, "ilp/diamond-8", exactModel(t, gen.Diamond, 8), 100)
	pinILP(t, &buf, "ilp/layered-12", exactModel(t, gen.Layered, 12), 16)
	return buf.Bytes()
}

func exactModel(t *testing.T, fam gen.Family, nodes int) ilp.Problem {
	t.Helper()
	g, err := gen.Generate(gen.Config{Family: fam, Seed: 7, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := placement.ExactModel(g, sim.NewSystem(2, 0), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// pinILP runs a node-capped branch and bound (dives included) and
// digests every node relaxation it offers the incumbent hook, which
// declines them all and so leaves the search unchanged, then the result
// and the LP counters the whole search added up.
func pinILP(t *testing.T, buf *bytes.Buffer, name string, prob ilp.Problem, maxNodes int) {
	t.Helper()
	node := 0
	hook := func(relaxed []float64) ([]float64, float64, bool) {
		node++
		h := sha256.New()
		for j, x := range relaxed {
			fmt.Fprintf(h, "x %d %016x\n", j, math.Float64bits(x))
		}
		fmt.Fprintf(buf, "%s/relax%d %s\n", name, node, hex.EncodeToString(h.Sum(nil)[:16]))
		return nil, 0, false
	}
	rec := obs.NewRecorder()
	res, err := ilp.Solve(obs.Into(context.Background(), rec), prob, ilp.Options{
		MaxNodes: maxNodes, TimeLimit: time.Hour, Incumbent: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "status %d nodes %d obj %016x bound %016x gap %016x\n", res.Status, res.Nodes,
		math.Float64bits(res.Objective), math.Float64bits(res.Bound), math.Float64bits(res.Gap))
	for j, x := range res.X {
		fmt.Fprintf(h, "x %d %016x\n", j, math.Float64bits(x))
	}
	counters := rec.Counters()
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(buf, "%s/result %v nodes %d objective %.9g %s\n", name, res.Status, res.Nodes, res.Objective, hex.EncodeToString(h.Sum(nil)[:16]))
	for _, k := range names {
		fmt.Fprintf(buf, "%s/counter %s %d\n", name, k, counters[k])
	}
}

func writePinned(buf *bytes.Buffer, name string, sol lp.Solution, err error) {
	h := sha256.New()
	lp.DigestSolution(h, sol)
	fmt.Fprintf(buf, "%s %v %d %.9g %s", name, sol.Status, sol.Iters, sol.Objective, hex.EncodeToString(h.Sum(nil)[:16]))
	if err != nil {
		fmt.Fprintf(buf, " err=%q", err.Error())
	}
	buf.WriteByte('\n')
}
