package lp_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/lp"
)

// TestExportedBasisSurvivesReuse: solver workspaces, the status vector
// an exported Basis copies included, are pooled and reused by later
// solves, so a Solution must own everything it returns. Digest a cold
// root solution and its warm children, run 50 further cold and warm
// solves of other problems, and the digests must not have moved.
func TestExportedBasisSurvivesReuse(t *testing.T) {
	// One P keeps every solve on the same pooled workspace.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// 25 other problems, each solved cold and then warm from its own
	// basis with variable 0's box halved (a nil basis makes that solve
	// cold). One pass runs before the kept solves too: it grows the
	// pooled buffers to the size later passes need, so they write over
	// the memory the kept statuses were copied from instead of a fresh
	// array.
	others := []*lp.Problem{exactModel(t, gen.Diamond, 12).LP, exactModel(t, gen.Layered, 8).LP}
	for seed := int64(1); len(others) < 25; seed++ {
		others = append(others, lp.RandomLP(rand.New(rand.NewSource(seed))))
	}
	solveOthers := func() {
		for _, p := range others {
			sol, _ := lp.Solve(p)
			child := p.Clone()
			lo, hi := child.Bounds(0)
			if err := child.SetBounds(0, lo, (lo+hi)/2); err != nil {
				t.Fatal(err)
			}
			_, _ = lp.SolveWarmDeadlineObs(child, sol.Basis, time.Time{}, nil)
		}
	}
	solveOthers()

	prob := exactModel(t, gen.Layered, 12)
	root, err := lp.Solve(prob.LP)
	if err != nil {
		t.Fatal(err)
	}
	kept := []lp.Solution{root}
	for k := 0; k < 4 && k < len(prob.Binary); k++ {
		for _, val := range []float64{0, 1} {
			child := prob.LP.Clone()
			if err := child.SetBounds(prob.Binary[k], val, val); err != nil {
				t.Fatal(err)
			}
			sol, err := lp.SolveWarmDeadlineObs(child, root.Basis, time.Time{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, sol)
		}
	}
	digest := func() [][]byte {
		out := make([][]byte, len(kept))
		for i, sol := range kept {
			var buf bytes.Buffer
			lp.DigestSolution(&buf, sol)
			out[i] = buf.Bytes()
		}
		return out
	}
	before := digest()
	solveOthers()
	after := digest()
	for i := range kept {
		bl, al := bytes.Split(before[i], []byte("\n")), bytes.Split(after[i], []byte("\n"))
		for k := range bl {
			if !bytes.Equal(bl[k], al[k]) {
				t.Fatalf("solution %d changed after later solves, line %d:\nbefore %.200s\nafter  %.200s", i, k+1, bl[k], al[k])
			}
		}
	}
}

// maxWarmResolveAllocs bounds the allocations of one warm re-solve: the
// Solution's X and its exported Basis (the struct and its status
// vector), with room for one more, a workspace the garbage collector
// took from the pool. None of them is per pivot.
const maxWarmResolveAllocs = 4

// TestWarmResolveAllocs re-solves warm children of a generated exact
// model, one of them hundreds of pivots long, and holds each to a fixed
// allocation count.
func TestWarmResolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	prob := exactModel(t, gen.Layered, 16)
	root, err := lp.Solve(prob.LP)
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for k := 0; k < 4 && k < len(prob.Binary); k++ {
		for _, val := range []float64{0, 1} {
			child := prob.LP.Clone()
			if err := child.SetBounds(prob.Binary[k], val, val); err != nil {
				t.Fatal(err)
			}
			sol, err := lp.SolveWarmDeadlineObs(child, root.Basis, time.Time{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			most = max(most, sol.Iters)
			a := testing.AllocsPerRun(20, func() {
				if _, err := lp.SolveWarmDeadlineObs(child, root.Basis, time.Time{}, nil); err != nil {
					t.Fatal(err)
				}
			})
			if a > maxWarmResolveAllocs {
				t.Errorf("b%d=%g: a warm re-solve of %d pivots allocates %.0f times, want <= %d",
					k, val, sol.Iters, a, maxWarmResolveAllocs)
			}
		}
	}
	if most < 100 {
		t.Fatalf("the longest warm child took %d pivots; the guard would not cover per-pivot allocations", most)
	}
}
