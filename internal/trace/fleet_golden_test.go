package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pesto/internal/obs"
)

// fleetScenario is a synthetic but structurally faithful failover
// trace: the ring owner r1 refuses the first hop, a hedge to r2 races
// a retry to r0, and r0's serving hop carries a replica span dump
// (solver spans, a counter sample, a point). Fixed absolute
// nanoseconds exercise the t0 rebase.
func fleetScenario() ([]FleetHop, [][]obs.SpanRecord) {
	const base = int64(1_754_550_000_000_000_000)
	ms := func(n int) int64 { return int64(n) * 1_000_000 }
	hops := []FleetHop{
		{Seq: 0, Replica: "r1", Pass: 0, Kind: "first", RequestID: "trace-golden.h0",
			StartNs: base, EndNs: base + ms(2), Err: "fleet: replica down"},
		{Seq: 1, Replica: "r2", Pass: 0, Kind: "hedge", RequestID: "trace-golden.h1",
			StartNs: base + ms(1), EndNs: base + ms(9), Status: 503},
		{Seq: 2, Replica: "r0", Pass: 1, Kind: "retry", RequestID: "trace-golden.h2",
			StartNs: base + ms(3), EndNs: base + ms(15), Status: 200, Served: true},
	}
	dumps := [][]obs.SpanRecord{
		nil, // dead replica: no dump, lane omitted
		{
			{Kind: "point", Name: "admission.shed", TsNs: ms(1),
				Attrs: map[string]string{"reason": "queue-full"}},
		},
		{
			{Kind: "span", Name: "placement.place", TsNs: 0, DurNs: ms(11), Span: 1,
				Attrs: map[string]string{"outcome": "ok"}},
			{Kind: "span", Name: "placement.ilp", TsNs: ms(2), DurNs: ms(6), Span: 2, Parent: 1,
				Attrs: map[string]string{"status": "feasible"}},
			{Kind: "sample", Name: "ilp.incumbent", TsNs: ms(5), Value: 0.8},
			{Kind: "point", Name: "fleet.hop", TsNs: ms(1),
				Attrs: map[string]string{"traceId": "trace-golden", "hop": "2"}},
		},
	}
	return hops, dumps
}

// TestChromeTraceFleetGolden pins the stitched cross-replica export
// byte-for-byte. Regenerate with -update and review like code.
func TestChromeTraceFleetGolden(t *testing.T) {
	hops, dumps := fleetScenario()
	var buf bytes.Buffer
	if err := WriteChromeTraceFleet(&buf, "trace-golden", hops, dumps); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_fleet.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stitched trace output changed; run with -update if intentional.\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}

	var parsed chromeFile
	if err := json.Unmarshal(want, &parsed); err != nil {
		t.Fatalf("golden file not valid JSON: %v", err)
	}
	// Lane structure: the router at routerPID with the hedge packed
	// onto a second thread (it overlaps the first hop), replicas r0 and
	// r2 as their own processes in sorted ID order, dead r1 absent.
	pids := map[int]string{}
	routerLanes := map[int]bool{}
	hopEvents, served := 0, 0
	for _, e := range parsed.TraceEvents {
		if e.Ph == "M" {
			pids[e.PID] = e.Args["name"].(string)
			continue
		}
		if e.PID == routerPID && e.Ph == "X" {
			hopEvents++
			routerLanes[e.TID] = true
			if e.Args["served"] == true {
				served++
			}
		}
	}
	if pids[routerPID] != "fleet router" || pids[replicaBasePID] != "replica r0" || pids[replicaBasePID+1] != "replica r2" {
		t.Fatalf("process lanes wrong: %v", pids)
	}
	if len(pids) != 3 {
		t.Fatalf("dead replica r1 got a lane: %v", pids)
	}
	if hopEvents != 3 || served != 1 {
		t.Fatalf("hop events = %d (served %d), want 3 (served 1)", hopEvents, served)
	}
	if len(routerLanes) != 2 {
		t.Fatalf("overlapping hedge not packed onto its own lane: %d lanes", len(routerLanes))
	}
	for _, e := range parsed.TraceEvents {
		if e.TsUs < 0 || e.DUs < 0 {
			t.Fatalf("negative time after t0 rebase: %+v", e)
		}
	}

	// Stitching is deterministic: a second call over the same input
	// must reproduce the golden bytes exactly.
	var again bytes.Buffer
	h2, d2 := fleetScenario()
	if err := WriteChromeTraceFleet(&again, "trace-golden", h2, d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("stitcher output not deterministic across calls")
	}
}
