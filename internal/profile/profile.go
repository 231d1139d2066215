// Package profile estimates operation compute times and link
// communication models, implementing §3.1 of the Pesto paper. Compute
// times are measured by running a number of training iterations of the
// model on the runtime executor and averaging per-operation durations
// (the paper runs 100 iterations and relies on the per-op variability
// being small — its Figure 4a); communication is profiled by timing
// transfers of varying sizes and fitting the linear model of Figure 4b
// with ordinary least squares.
package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"pesto/internal/comm"
	"pesto/internal/graph"
	"pesto/internal/runtime"
	"pesto/internal/sim"
)

// Options configures compute-time profiling.
type Options struct {
	// Iterations is the number of training steps to run; zero means
	// 100, the paper's choice (≤0.1% of a typical training budget).
	Iterations int
	// Seed makes profiling reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	return o
}

// computeNoise models run-to-run variability of op compute times,
// matching the small normalized stddevs of Figure 4a.
const computeNoise = 0.03

// ComputeProfile holds per-operation timing statistics gathered over
// profiling iterations.
type ComputeProfile struct {
	// Mean is the average measured duration per node, the p_i estimate
	// fed to the Pesto ILP.
	Mean []time.Duration
	// NormStddev is stddev/mean per node (0 for zero-cost ops).
	NormStddev []float64
	// Iterations is the number of steps measured.
	Iterations int
}

// Compute profiles g by executing opts.Iterations training steps on a
// single-GPU system (memory limits are lifted during profiling, as the
// paper profiles models wherever they fit) and measuring every
// operation's duration.
func Compute(g *graph.Graph, opts Options) (*ComputeProfile, error) {
	opts = opts.withDefaults()
	sys := sim.NewSystem(1, 0) // unlimited GPU memory for profiling
	n := g.NumNodes()
	dev := make([]sim.DeviceID, n)
	for _, nd := range g.Nodes() {
		if nd.Kind == graph.KindGPU {
			dev[nd.ID] = 1
		}
	}
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	order := make([][]graph.NodeID, len(sys.Devices))
	for _, id := range topo {
		order[dev[id]] = append(order[dev[id]], id)
	}
	plan := sim.Plan{Device: dev, Order: order}

	sum := make([]float64, n)
	sumSq := make([]float64, n)
	for it := 0; it < opts.Iterations; it++ {
		res, err := runtime.Execute(g, sys, plan, runtime.Options{
			NoiseSigma: computeNoise,
			Seed:       opts.Seed,
			Iteration:  it,
		})
		if err != nil {
			return nil, fmt.Errorf("profile iteration %d: %w", it, err)
		}
		for i := 0; i < n; i++ {
			d := float64(res.Finish[i] - res.Start[i])
			sum[i] += d
			sumSq[i] += d * d
		}
	}
	prof := &ComputeProfile{
		Mean:       make([]time.Duration, n),
		NormStddev: make([]float64, n),
		Iterations: opts.Iterations,
	}
	k := float64(opts.Iterations)
	for i := 0; i < n; i++ {
		mean := sum[i] / k
		prof.Mean[i] = time.Duration(math.Round(mean))
		if mean > 0 {
			variance := sumSq[i]/k - mean*mean
			if variance < 0 {
				variance = 0
			}
			prof.NormStddev[i] = math.Sqrt(variance) / mean
		}
	}
	return prof, nil
}

// ApplyTo overwrites g's per-node costs with the profiled means — the
// step that turns a structural graph into the ILP's input.
func (p *ComputeProfile) ApplyTo(g *graph.Graph) error {
	if len(p.Mean) != g.NumNodes() {
		return fmt.Errorf("profile covers %d of %d nodes", len(p.Mean), g.NumNodes())
	}
	for i, m := range p.Mean {
		if err := g.SetCost(graph.NodeID(i), m); err != nil {
			return err
		}
	}
	return nil
}

// StddevCDF returns the sorted normalized standard deviations of all
// operations whose mean cost is at least minCost — the Figure 4a CDF
// (the paper filters out very small operations "for ease of
// illustration").
func (p *ComputeProfile) StddevCDF(minCost time.Duration) []float64 {
	var vals []float64
	for i, m := range p.Mean {
		if m >= minCost {
			vals = append(vals, p.NormStddev[i])
		}
	}
	sort.Float64s(vals)
	return vals
}

// Quantile reads the q-th quantile (0..1) from a sorted CDF sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Communication profiling probes transfer sizes of 1 KiB … 64 MiB in
// powers of four, commSamples timed transfers per size, each perturbed
// multiplicatively with stddev commNoise (yielding the R² ≈ 0.92–0.99
// regime the paper reports).
const (
	commSamples = 5
	commNoise   = 0.05
)

// CommProfile holds the measured samples and the fitted linear model for
// one link type.
type CommProfile struct {
	Type    comm.LinkType
	Samples []comm.Sample
	Model   comm.Model
}

// Communication profiles a link of the given type on sys by timing
// transfers of varying sizes and fitting the linear model. The probe
// graph is independent of any DNN, matching §3.1's observation that the
// communication model "can thus be easily obtained via offline profiling
// ... from any model".
func Communication(sys sim.System, lt comm.LinkType, seed int64) (*CommProfile, error) {
	from, to, err := probeDevices(sys, lt)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	prof := &CommProfile{Type: lt}
	for size := int64(1 << 10); size <= 64<<20; size <<= 2 {
		for s := 0; s < commSamples; s++ {
			true0 := sys.TransferTime(from, to, size)
			measured := float64(true0) * (1 + commNoise*rng.NormFloat64())
			if measured < 0 {
				measured = 0
			}
			prof.Samples = append(prof.Samples, comm.Sample{
				Bytes: size,
				Time:  time.Duration(measured),
			})
		}
	}
	m, err := comm.Fit(lt, prof.Samples)
	if err != nil {
		return nil, fmt.Errorf("profile %v: %w", lt, err)
	}
	prof.Model = m
	return prof, nil
}

// probeDevices picks a device pair realizing the requested link type.
func probeDevices(sys sim.System, lt comm.LinkType) (from, to sim.DeviceID, err error) {
	gpus := sys.GPUs()
	switch lt {
	case comm.CPUToGPU:
		if len(gpus) < 1 {
			return 0, 0, fmt.Errorf("profile %v: no GPU in system", lt)
		}
		return sys.CPUID(), gpus[0], nil
	case comm.GPUToCPU:
		if len(gpus) < 1 {
			return 0, 0, fmt.Errorf("profile %v: no GPU in system", lt)
		}
		return gpus[0], sys.CPUID(), nil
	case comm.GPUToGPU:
		if len(gpus) < 2 {
			return 0, 0, fmt.Errorf("profile %v: need two GPUs", lt)
		}
		return gpus[0], gpus[1], nil
	default:
		return 0, 0, fmt.Errorf("unknown link type %v", lt)
	}
}
