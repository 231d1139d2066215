package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"pesto/internal/graph"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	p := Plan{
		Device:   []DeviceID{0, 1, 2, 1},
		Order:    [][]graph.NodeID{nil, {1, 3}, {2}},
		Policy:   PolicyPriority,
		Priority: []float64{1, 2, 3, 4},
		Seed:     7,
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Normalize the nil-vs-empty inner slice difference.
	if len(back.Order[0]) != 0 {
		t.Fatalf("order[0] = %v", back.Order[0])
	}
	back.Order[0] = nil
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip differs:\n%+v\n%+v", p, back)
	}
}

func TestPlanJSONHelpers(t *testing.T) {
	p := Plan{Device: []DeviceID{1, 2}}
	var buf bytes.Buffer
	if err := WritePlanJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := back.UnmarshalJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Device, back.Device) {
		t.Fatal("devices differ")
	}
	if err := new(Plan).UnmarshalJSON([]byte("{")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestPlanJSONValidatesAtUse(t *testing.T) {
	// A decoded plan with nonsense devices is rejected by Run, not by
	// decoding.
	g := graph.New(1)
	g.AddNode(graph.Node{Kind: graph.KindGPU, Cost: 1})
	var p Plan
	if err := json.Unmarshal([]byte(`{"device":[9]}`), &p); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, NewSystem(1, 1<<30), p); err == nil {
		t.Fatal("expected validation error at use time")
	}
}
