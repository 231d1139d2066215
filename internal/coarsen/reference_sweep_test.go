package coarsen_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pesto/internal/coarsen"
	"pesto/internal/gen"
	"pesto/internal/graph"
	"pesto/internal/models"
)

// permutedDAG builds a random DAG whose edges run between randomly
// permuted IDs, so merges see lower-ID successors, with mixed kinds,
// colocation groups and layers. The generator families only wire lower
// IDs to higher ones.
func permutedDAG(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		nd := graph.Node{
			Name:   fmt.Sprintf("op%d", i),
			Kind:   graph.KindGPU,
			Cost:   time.Duration(1+rng.Intn(500)) * time.Microsecond,
			Memory: int64(1 + rng.Intn(1<<12)),
			Layer:  rng.Intn(6) - 1,
			Branch: rng.Intn(3) - 1,
		}
		switch rng.Intn(10) {
		case 0:
			nd.Kind = graph.KindCPU
		case 1:
			nd.Kind = graph.KindKernel
		}
		if rng.Intn(4) == 0 {
			nd.Coloc = fmt.Sprintf("c%d", rng.Intn(4))
		}
		g.AddNode(nd)
	}
	perm := rng.Perm(n)
	for k := 0; k < 2*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		// Bytes repeat often, so the (From, To) tie-break decides.
		_ = g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[j]), int64(1+rng.Intn(8))<<10)
	}
	return g
}

// checkMatchesReference fails unless Coarsen and the rebuild-per-merge
// reference agree exactly on g under opts, errors included.
func checkMatchesReference(t *testing.T, name string, g *graph.Graph, opts coarsen.Options) {
	t.Helper()
	got, gerr := coarsen.Coarsen(g, opts)
	want, werr := coarsen.ReferenceCoarsen(g, opts)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s %+v: error %v, reference %v", name, opts, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v: result differs from the reference (%d vs %d coarse nodes, %d vs %d iterations)",
			name, opts, got.Coarse.NumNodes(), want.Coarse.NumNodes(), got.Iterations, want.Iterations)
	}
}

// sweepOptions draws a target and, one time in three, blob caps tight
// enough to stall the batch pass into the sequential and exact ones.
func sweepOptions(rng *rand.Rand, g *graph.Graph) coarsen.Options {
	opts := coarsen.Options{Target: 1 + rng.Intn(g.NumNodes()+8)}
	if rng.Intn(3) == 0 {
		opts.MaxNodeCost = g.TotalCost() / time.Duration(1+rng.Intn(16))
		opts.MaxNodeMemory = g.TotalMemory() / int64(1+rng.Intn(16))
	}
	return opts
}

// TestCoarsenMatchesReference holds the in-place contraction to the
// rebuild-per-merge reference on every generator family, 20 seeds and
// random sizes, targets and caps, and on random DAGs with permuted IDs.
func TestCoarsenMatchesReference(t *testing.T) {
	for _, fam := range pinFamilies() {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: 8 + rng.Intn(300)})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				checkMatchesReference(t, fmt.Sprintf("%v/s%d", fam, seed), g, sweepOptions(rng, g))
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := permutedDAG(rng, 4+rng.Intn(120))
		for k := 0; k < 3; k++ {
			checkMatchesReference(t, fmt.Sprintf("permuted/s%d", seed), g, sweepOptions(rng, g))
		}
	}
}

// FuzzCoarsenMatchesReference holds the in-place contraction to the
// rebuild-per-merge reference on generated and permuted random DAGs.
func FuzzCoarsenMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(48), uint16(8), uint8(0))
	f.Add(int64(2), uint8(2), uint16(200), uint16(16), uint8(1))
	f.Add(int64(3), uint8(5), uint16(96), uint16(48), uint8(2))
	f.Add(int64(4), uint8(6), uint16(60), uint16(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, family uint8, nodes, target uint16, caps uint8) {
		fams := pinFamilies()
		n := 2 + int(nodes)%400
		var g *graph.Graph
		if int(family)%(len(fams)+1) == len(fams) {
			g = permutedDAG(rand.New(rand.NewSource(seed)), n)
		} else {
			var err error
			g, err = gen.Generate(gen.Config{Family: fams[int(family)%(len(fams)+1)], Seed: seed, Nodes: n})
			if err != nil {
				t.Skip(err)
			}
		}
		opts := coarsen.Options{Target: 1 + int(target)%(g.NumNodes()+8)}
		if d := int(caps) % 17; d > 0 {
			opts.MaxNodeCost = g.TotalCost() / time.Duration(d)
			opts.MaxNodeMemory = g.TotalMemory() / int64(d)
		}
		checkMatchesReference(t, "fuzz", g, opts)
	})
}

// zooTarget is the refine rung's coarsening target.
const zooTarget = 192

// BenchmarkCoarsenZoo coarsens the five paper-scale model-zoo graphs of
// the repository benchmark's refine-rung workload.
func BenchmarkCoarsenZoo(b *testing.B) {
	for _, name := range []string{"RNNLM-2-2048", "NMT-2-1024", "Transformer-10-8-1024", "Transformer-6-16-2048", "NASNet-6-148"} {
		v, err := models.FindVariant(name)
		if err != nil {
			b.Fatal(err)
		}
		g, err := v.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coarsen.Coarsen(g, coarsen.Options{Target: zooTarget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// smallGraphAllocs is what one Coarsen of the 96-operation layered graph
// at target 192 allocated before contraction moved in place. A graph
// already at or below its target must not pay for contraction state.
const smallGraphAllocs = 389

// TestCoarsenSmallGraphAllocs guards the path graphs at or below the
// target take, the one the incremental-placement benchmark lives on.
func TestCoarsenSmallGraphAllocs(t *testing.T) {
	g, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 96})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := coarsen.Coarsen(g, coarsen.Options{Target: zooTarget}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per Coarsen", got)
	if got > smallGraphAllocs {
		t.Fatalf("Coarsen of a %d-node graph at target %d allocates %v times, want at most %d", g.NumNodes(), zooTarget, got, smallGraphAllocs)
	}
}
