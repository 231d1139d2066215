package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"pesto/internal/graph"
	"pesto/internal/incr"
	"pesto/internal/sim"
)

// short is the scale every test here runs at: a slice of each corpus,
// one build, so the whole package stays within a few seconds.
var short = scale{short: true, clients: 1}

// inputsHash is a digest of every input an instance generated: graph
// fingerprints, edit traces, request bodies and the request sequence.
func inputsHash(t *testing.T, inst instance) string {
	t.Helper()
	h := sha256.New()
	switch v := inst.(type) {
	case *placeInstance:
		for _, op := range v.ops {
			fp := op.g.Fingerprint()
			h.Write([]byte(op.name))
			h.Write(fp[:])
		}
	case *editInstance:
		fp := v.base.Fingerprint()
		h.Write(fp[:])
		efp := incr.Fingerprint(v.edits)
		h.Write(efp[:])
	case *serveInstance:
		for _, k := range v.keys {
			sum := sha256.Sum256(k.body)
			h.Write(sum[:])
		}
		for _, key := range v.seq[:4096] {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(key))
			h.Write(b[:])
		}
	default:
		t.Fatalf("no input digest for %T", inst)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestInputsAndReferencesArePinned: the same seed must give the same
// inputs on every machine and at every commit, or no two runs compare;
// and the committed references must be what set-up computes for those
// inputs today. The graph corpora are pinned whatever the seed;
// serve_zipf's request sequence follows it. When the baselines change on
// purpose, empty testdata/reference.json and re-run `go run ./bench
// -write-reference` only if the yardstick is meant to move with them.
func TestInputsAndReferencesArePinned(t *testing.T) {
	want := map[string]map[int64]string{
		"exact_tree": {7: "fcd0b0e29c0eb63d", 11: "fcd0b0e29c0eb63d"},
		"ladder_zoo": {7: "fc00559d6f169f72", 11: "fc00559d6f169f72"},
		"edit_trace": {7: "5964c275e261e9d8", 11: "5964c275e261e9d8"},
		"serve_zipf": {7: "e3ff90f15822b698", 11: "512bf6a34c7f5936"},
	}
	for _, w := range workloads {
		for _, seed := range []int64{7, 11} {
			inst, err := w.build(seed, scale{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if got := inputsHash(t, inst); got != want[w.name][seed] {
				t.Errorf("%s seed %d: inputs hash to %s, pinned %s", w.name, seed, got, want[w.name][seed])
			}
			if seed == 7 {
				pinned, computed := loadPins(w.name).byKey, computedReferences(t, inst)
				if !reflect.DeepEqual(pinned, computed) {
					t.Errorf("%s: set-up no longer computes the pinned references (%d pinned, %d inputs)", w.name, len(pinned), len(computed))
				}
			}
			inst.close()
		}
	}
}

// TestRunsRepeatExactly: everything a run reports that is not a time
// must be identical between two runs of the same seed — the quality of
// the plans, the solver's counts, the warm/hit shares. A count that
// drifts between identical runs cannot carry a claim. The same runs show
// that every per-layer name a traced run promises has a source: the
// probes or some workload's traced rounds.
func TestRunsRepeatExactly(t *testing.T) {
	seen, err := layerProbes(true)
	if err != nil {
		t.Fatal(err)
	}
	seen["obs.traced_overhead_share"] = 1 // a difference of two timings; may be exactly anything
	exact := map[string][]string{
		"exact_tree": {"ilp.nodes_per_op", "lp.pivots_per_op", "lp.solves_per_op", "ilp.proved_share"},
		"ladder_zoo": {},
		"edit_trace": {"placement.warm_share", "incr.dirty_group_share"},
		"serve_zipf": {"service.cache_hit_share"}, // one client: the request order is the sequence
	}
	for _, w := range workloads {
		cfg := runConfig{seed: 7, rounds: 2, traced: true, scale: short}
		a, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Failed != 0 || b.Failed != 0 {
			t.Errorf("%s: failed ops %d and %d: %v", w.name, a.Failed, b.Failed, a.Failures)
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d then %d", w.name, a.Attempted, b.Attempted)
		}
		if a.EndToEnd["quality_ratio"] != b.EndToEnd["quality_ratio"] || a.EndToEnd["quality_ratio"] <= 0 {
			t.Errorf("%s: quality_ratio %v then %v", w.name, a.EndToEnd["quality_ratio"], b.EndToEnd["quality_ratio"])
		}
		for _, name := range exact[w.name] {
			if a.PerLayer[name] != b.PerLayer[name] || a.PerLayer[name] == 0 {
				t.Errorf("%s: %s = %v then %v, want equal and non-zero", w.name, name, a.PerLayer[name], b.PerLayer[name])
			}
		}
		if share := a.PerLayer["harness.attributed_share"]; share < 0.95 {
			t.Errorf("%s: harness spans cover %.3f of the traced wall time, want >= 0.95", w.name, share)
		}
		for name, v := range a.PerLayer {
			if v != 0 {
				seen[name] = v
			}
		}
	}
	for name := range perLayerUnits {
		// Retries, hedges and failovers are expected to be zero, and a
		// refused share above zero would be a failed run.
		switch name {
		case "fleet.retries", "fleet.hedges", "fleet.failovers", "service.refused_share":
			continue
		}
		if _, ok := seen[name]; !ok {
			t.Errorf("per-layer metric %s is never produced", name)
		}
	}
	for name := range seen {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("metric %s is produced but has no unit in perLayerUnits", name)
		}
	}
}

// TestBenchmarkFileMatchesHarness: BENCHMARK.json is the contract the
// driver reads; the names, units and run length in it must be the ones
// this program prints and runs.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, harness has %q", i, bm.Workloads[i].Name, w.name)
		}
	}
	if len(bm.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("%d end-to-end metrics, harness prints %d", len(bm.EndToEnd), len(endToEndUnits))
	}
	for _, m := range bm.EndToEnd {
		found := false
		for _, u := range endToEndUnits {
			found = found || (u[0] == m.Name && u[1] == m.Unit)
		}
		if !found {
			t.Errorf("end-to-end metric %s (%s) is not printed by the harness", m.Name, m.Unit)
		}
	}
	var got, want []string
	for _, m := range bm.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for name, unit := range perLayerUnits {
		want = append(want, name+" "+unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%d per-layer metrics, harness prints %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("per-layer metric %q, harness prints %q", got[i], want[i])
		}
	}
}

// computedReferences recomputes, from an instance's inputs, the
// reference makespans set-up would use were nothing pinned.
func computedReferences(t *testing.T, inst instance) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	add := func(key string, g *graph.Graph, sys sim.System) {
		ref, _, err := reference(g, sys)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = int64(ref)
	}
	switch v := inst.(type) {
	case *placeInstance:
		for _, op := range v.ops {
			add(op.name, op.g, v.sys)
		}
	case *editInstance:
		cur := v.base
		for i, e := range v.edits {
			next, _, err := incr.Apply(cur, e)
			if err != nil {
				t.Fatal(err)
			}
			add(stepKey(i), next, v.sys)
			cur = next
		}
	case *serveInstance:
		for i, k := range v.keys {
			add(graphKey(i), k.out.g, k.out.sys)
		}
	}
	return out
}
