package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pesto/internal/obs"
)

// tracer collects the spans of the traced rounds in memory: the
// harness's own spans around each public call, and under them whatever
// the program emits through the recorder it is handed.
type tracer struct {
	sink *obs.MemorySink
	rec  *obs.Recorder
}

func newTracer() *tracer {
	sink := obs.NewMemorySink()
	return &tracer{sink: sink, rec: obs.NewRecorder(sink)}
}

func (t *tracer) context(ctx context.Context) context.Context { return obs.Into(ctx, t.rec) }

// spanTotals is the time of every span of one name.
type spanTotals struct {
	// self is duration minus the part of it child spans cover.
	self, total time.Duration
}

type interval struct{ start, end time.Duration }

// unionLen is the length of the union of the intervals.
func unionLen(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var covered, end time.Duration
	for i, v := range iv {
		if i == 0 || v.start > end {
			covered += v.end - v.start
			end = v.end
		} else if v.end > end {
			covered += v.end - end
			end = v.end
		}
	}
	return covered
}

// spanSelfTimes sums, per span name, total time and self time. Children
// may overlap (the engine fans work out), so a span's covered part is
// the union of its children clipped to it.
func spanSelfTimes(recs []obs.Record) map[string]spanTotals {
	children := make(map[uint64][]interval)
	for _, r := range recs {
		if r.Kind == obs.KindSpan && r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], interval{r.Ts, r.Ts + r.Dur})
		}
	}
	out := make(map[string]spanTotals)
	for _, r := range recs {
		if r.Kind != obs.KindSpan {
			continue
		}
		kids := children[r.ID]
		for i := range kids {
			kids[i].start = max(kids[i].start, r.Ts)
			kids[i].end = min(kids[i].end, r.Ts+r.Dur)
		}
		t := out[r.Name]
		t.total += r.Dur
		t.self += r.Dur - unionLen(kids)
		out[r.Name] = t
	}
	return out
}

// perLayerMetrics derives the per-layer figures of the traced rounds:
// span self times and counters from the recorder, the workload's own
// figures from its samples, and how much of the traced wall time the
// harness's spans account for.
func perLayerMetrics(tr *tracer, inst instance, all []sample, tracedWall time.Duration) map[string]float64 {
	var traced []sample
	for _, s := range all {
		if s.traced {
			traced = append(traced, s)
		}
	}
	recs := tr.sink.Records()
	spans := spanSelfTimes(recs)
	counters := tr.rec.Counters()
	ops := float64(len(traced))
	out := make(map[string]float64)

	// Self time per op of the spans the placement ladder already emits.
	for metric, span := range map[string]string{
		"placement.coarsen_ms":     "placement.coarsen",
		"placement.model_ms":       "placement.model",
		"placement.seed_ms":        "placement.seed",
		"placement.refine_ms":      "placement.refine",
		"placement.candidates_ms":  "placement.candidates",
		"placement.incremental_ms": "placement.incremental",
	} {
		out[metric] = ms(spans[span].self) / ops
	}
	// What placement.place spent outside every rung-level child: option
	// defaulting, ladder bookkeeping and the final verification.
	if place := spans["placement.place"]; place.total > 0 {
		out["placement.unattributed_share"] = float64(place.self+spans["placement.stage"].self) / float64(place.total)
	}

	count := func(name string) float64 { return float64(counters[name]) }
	out["ilp.nodes_per_op"] = count("ilp.nodes") / ops
	out["lp.solves_per_op"] = count("lp.solves") / ops
	out["lp.pivots_per_op"] = count("lp.pivots") / ops
	out["lp.refactorizations_per_op"] = count("lp.refactorizations") / ops
	if nodes := count("ilp.nodes"); nodes > 0 {
		out["ilp.ms_per_node"] = ms(spans["placement.ilp"].total) / nodes
		// Child relaxations are warm-started and re-solved by dual
		// simplex, so dual pivots per node is the cost of one branch.
		out["ilp.child_pivots_per_node"] = count("lp.pivots.dual") / nodes
	}
	if pivots := count("lp.pivots"); pivots > 0 {
		out["lp.us_per_pivot"] = float64(spans["placement.ilp"].total.Microseconds()) / pivots
	}
	if warm := count("lp.warmstart.hits") + count("lp.warmstart.misses"); warm > 0 {
		out["lp.warm_hit_share"] = count("lp.warmstart.hits") / warm
	}

	for k, v := range inst.layerMetrics(traced) {
		out[k] = v
	}

	// Share of the traced rounds' wall time during which a harness span
	// was open: what the trace can explain at all.
	var roots []interval
	for _, r := range recs {
		if r.Kind == obs.KindSpan && r.Parent == 0 {
			roots = append(roots, interval{r.Ts, r.Ts + r.Dur})
		}
	}
	if tracedWall > 0 {
		out["harness.attributed_share"] = float64(unionLen(roots)) / float64(tracedWall)
	}
	return out
}

// traceSpan is one span as written to trace.<workload>.json.
type traceSpan struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUs float64           `json:"start_us"`
	DurUs   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// writeFile writes the spans and counters of the traced rounds. Each
// top-level span is one op (its attrs say which); spans under it are
// the program's own, parented by ID.
func (t *tracer) writeFile(dir, workload string, seed int64) error {
	doc := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Counters map[string]int64 `json:"counters"`
		Spans    []traceSpan      `json:"spans"`
	}{Workload: workload, Seed: seed, Counters: t.rec.Counters()}
	for _, r := range t.sink.Records() {
		if r.Kind != obs.KindSpan {
			continue
		}
		s := traceSpan{ID: r.ID, Parent: r.Parent, Name: r.Name,
			StartUs: float64(r.Ts) / 1e3, DurUs: float64(r.Dur) / 1e3}
		if len(r.Attrs) > 0 {
			s.Attrs = make(map[string]string, len(r.Attrs))
			for _, a := range r.Attrs {
				s.Attrs[a.Key] = a.Value
			}
		}
		doc.Spans = append(doc.Spans, s)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace.%s.json", workload))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench: wrote %s (%d spans)\n", path, len(doc.Spans))
	return nil
}
