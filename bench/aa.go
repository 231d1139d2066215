package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs sets complete sets of the workloads back to back on the
// same code and seed, splits them into a first and a second half, and
// holds, for every (workload, metric), the gap between the two halves'
// medians to the metric's bound — the comparison a driver makes between
// a parent and a change, here between a commit and itself. It is how the
// bounds of BENCHMARK.json were confirmed; it exits non-zero on any
// breach and on any failed op.
func runAA(stdout io.Writer, selected []workload, cfg runConfig, sets int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -aa reads the bounds from BENCHMARK.json (run from the repository root): %v\n", err)
		return 1
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}

	results := make(map[string][]*runResult) // by workload, one per set
	for set := 0; set < sets; set++ {
		for _, w := range selected {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: set %d: %v\n", set, err)
				return 1
			}
			fmt.Fprintf(stderr, "bench: set %d %s done in %.1f s\n", set, w.name, res.MeasuredS)
			results[w.name] = append(results[w.name], res)
		}
	}

	breaches := 0
	fmt.Fprintf(stdout, "A/A over %d sets (first %d against the rest), seed %d\n", sets, (sets+1)/2, cfg.seed)
	fmt.Fprintf(stdout, "%-11s %-19s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "gap", "bound", "")
	for _, w := range selected {
		for _, m := range bm.EndToEnd {
			vals := make([]float64, 0, sets)
			for _, r := range results[w.name] {
				vals = append(vals, r.EndToEnd[m.Name])
			}
			// The gap is taken the way the driver takes a regression: how
			// much worse one half's median is, as a share of the other's.
			a, b := median(vals[:(sets+1)/2]), median(vals[(sets+1)/2:])
			gap := math.Abs(a-b) / math.Min(a, b)
			sort.Float64s(vals)
			verdict := "ok"
			if gap > m.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-11s %-19s %12.5f %12.5f %12.5f %7.2f%% %7.2f%%  %s\n", w.name, m.Name,
				median(vals), quantile(vals, 0.25), quantile(vals, 0.75), 100*gap, 100*m.Bound, verdict)
		}
		for _, r := range results[w.name] {
			if r.Failed > 0 {
				fmt.Fprintf(stdout, "%-11s %d failed ops: %v  BREACH\n", w.name, r.Failed, r.Failures)
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breaches\n", breaches)
		return 1
	}
	return 0
}

// quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
