// Command bench is the repository's benchmark: four long workloads, six
// end-to-end metrics on each, a per-layer trace beside them and an
// output oracle over every op. README.md in this directory says what
// each number means and which layer should move which.
//
//	go run ./bench -seed 7                 every workload, table + JSON
//	go run ./bench -seed 7 -trace 1        the same with the traced run
//	go run ./bench -aa 2 -seed 7           two sets, held to the bounds
//	go run ./bench -write-reference
//	bash bench/run.sh --workload exact_tree --seed 7 --seconds 22 --trace 0
//
// The last form is what BENCHMARK.json names; its last line of standard
// output is the driver's result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// defaultSeconds is the measured length of one workload run, the
// run_seconds of BENCHMARK.json.
const defaultSeconds = 22

// maxProcs caps GOMAXPROCS: all load comes from this one process, and
// results from machines of very different widths would not compare.
const maxProcs = 4

var stderr io.Writer = os.Stderr

// perLayerUnits names every per-layer metric a traced run prints and
// its unit. A metric that does not apply to the workload run (B&B nodes
// on serve_zipf) is printed as 0.
var perLayerUnits = map[string]string{
	"graph.decode_us":              "us",
	"graph.fingerprint_us":         "us",
	"service.hit_handler_us":       "us",
	"service.miss_handler_ms":      "ms",
	"service.socket_us":            "us",
	"service.cache_hit_share":      "share",
	"service.refused_share":        "share",
	"service.req_p99_ms":           "ms",
	"fleet.hop_us":                 "us",
	"fleet.retries":                "count",
	"fleet.hedges":                 "count",
	"fleet.failovers":              "count",
	"coarsen.ms":                   "ms",
	"coarsen.groupfp_us":           "us",
	"placement.seed_ms":            "ms",
	"placement.refine_ms":          "ms",
	"placement.candidates_ms":      "ms",
	"placement.coarsen_ms":         "ms",
	"placement.model_ms":           "ms",
	"placement.incremental_ms":     "ms",
	"placement.warm_share":         "share",
	"placement.lp_rows":            "count",
	"placement.lp_vars":            "count",
	"placement.lp_binaries":        "count",
	"placement.unattributed_share": "share",
	"placement.replan_ms":          "ms",
	"ilp.nodes_per_op":             "count",
	"ilp.ms_per_node":              "ms",
	"ilp.proved_share":             "share",
	"ilp.gap_mean":                 "ratio",
	"ilp.child_pivots_per_node":    "count",
	"ilp.solve_ms":                 "ms",
	"lp.solves_per_op":             "count",
	"lp.pivots_per_op":             "count",
	"lp.refactorizations_per_op":   "count",
	"lp.warm_hit_share":            "share",
	"lp.us_per_pivot":              "us",
	"lp.solve_ms":                  "ms",
	"sim.run_us":                   "us",
	"verify.check_us":              "us",
	"verify.lowerbound_ms":         "ms",
	"baselines.best_baechi_ms":     "ms",
	"baselines.heft_ms":            "ms",
	"pipeline.partition_dp_us":     "us",
	"pipeline.search_ms":           "ms",
	"incr.apply_us":                "us",
	"incr.compare_us":              "us",
	"incr.dirty_group_share":       "share",
	"engine.map_overhead_us":       "us",
	"obs.traced_overhead_share":    "share",
	"harness.attributed_share":     "share",
}

// runDoc is the one JSON document a run prints beside the human table.
type runDoc struct {
	Commit     string       `json:"commit"`
	Seed       int64        `json:"seed"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Runs       []*runResult `json:"runs"`
}

func newRunDoc(seed int64) *runDoc {
	doc := &runDoc{Commit: "unknown", Seed: seed, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				doc.Commit = s.Value
			}
		}
	}
	return doc
}

// metricValue is one metric in the driver's result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the object the driver reads from the last line.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) driverResult() driverResult {
	out := driverResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	if r.Traced {
		for name, unit := range perLayerUnits {
			out.Metrics[name] = metricValue{r.PerLayer[name], unit}
		}
		return out
	}
	for _, m := range endToEndUnits {
		out.Metrics[m[0]] = metricValue{r.EndToEnd[m[0]], m[1]}
	}
	return out
}

// printTable is the human-readable side of a run.
func printTable(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n%s  seed %d  rounds %d  ops attempted %d  succeeded %d  failed %d  measured %.1f s\n",
		r.Workload, r.Seed, r.Rounds, r.Attempted, r.Attempted-r.Failed, r.Failed, r.MeasuredS)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED OP  %s\n", f)
	}
	for _, m := range endToEndUnits {
		fmt.Fprintf(w, "  %-22s %14.6f %s\n", m[0], r.EndToEnd[m[0]], m[1])
	}
	fmt.Fprintf(w, "  times are at reference machine speed; this run's speed factor %.3f, raw cpu_ms_per_op %.3f\n",
		r.MachineSpeed, r.RawCPUMsPerOp)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s %18s %10s %7s %5s\n", "class", "samples", "median_ms", "raw_ms", "tail_ms", "limit_ms", "failed", "over")
	for _, c := range r.Classes {
		tail := "-"
		if c.TailPct > 0 {
			tail = fmt.Sprintf("%.3f (p%.1f)", c.TailMs, c.TailPct)
		}
		fmt.Fprintf(w, "  %-24s %8d %12.3f %12.3f %18s %10.0f %7d %5d\n", c.Name, c.Samples, c.MedianMs, c.RawMedianMs, tail, c.LimitMs, c.Failed, c.Over)
	}
	if !r.Traced {
		return
	}
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  per-layer (traced rounds and stand-alone probes):\n")
	for _, name := range names {
		fmt.Fprintf(w, "    %-30s %14.4f %s\n", name, r.PerLayer[name], perLayerUnits[name])
	}
	if u := r.PerLayer["placement.unattributed_share"]; u > 0.05 {
		fmt.Fprintf(w, "  WARNING: %.1f%% of placement.place is covered by no child span\n", 100*u)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and end with the driver's result line (default: all four)")
	seed := fs.Int64("seed", 7, "seed of the inputs and the visiting order")
	seconds := fs.Float64("seconds", defaultSeconds, "measured length of each workload run")
	rounds := fs.Int("rounds", 0, "measure exactly this many rounds instead of -seconds")
	trace := fs.Int("trace", 0, "1 adds the traced run: per-layer metrics and bench/out/trace.<workload>.json")
	aa := fs.Int("aa", 0, "run this many complete sets back to back and hold their gaps to the bounds of BENCHMARK.json")
	writeRef := fs.Bool("write-reference", false, "write bench/testdata/reference.json and exit")
	outDir := fs.String("out", "bench/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v or -trace %d\n", fs.Args(), *trace)
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	if *writeRef {
		if err := writeReference(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, rounds: *rounds, traceDir: *outDir}
	if *aa == 1 {
		fmt.Fprintf(stderr, "bench: -aa needs at least two sets\n")
		return 2
	}
	if *aa > 1 {
		return runAA(stdout, selected, cfg, *aa)
	}

	doc := newRunDoc(*seed)
	var last *runResult
	// The probes do not depend on the workload: once per process.
	var probes map[string]float64
	if *trace == 1 {
		var err error
		if probes, err = layerProbes(false); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	for _, w := range selected {
		// The driver asks for one run per call, traced or not; a person
		// asking for the trace of every workload wants the gated numbers
		// beside it.
		modes := []bool{*trace == 1}
		if *name == "" && *trace == 1 {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			cfg.traced = traced
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if traced {
				for k, v := range probes {
					res.PerLayer[k] = v
				}
			}
			printTable(stdout, res)
			doc.Runs = append(doc.Runs, res)
			last = res
		}
	}
	if err := printJSON(stdout, doc); err != nil {
		return 1
	}
	if *name != "" {
		if err := printJSON(stdout, last.driverResult()); err != nil {
			return 1
		}
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
