package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"pesto/internal/graph"
)

// jsonPlan is the serialized form of a Plan: the artifact a deployment
// would hand to the training runtime (the paper's implementation
// injects it into tf.Session, §4).
type jsonPlan struct {
	Device   []int     `json:"device"`
	Order    [][]int   `json:"order,omitempty"`
	Policy   int       `json:"policy,omitempty"`
	Priority []float64 `json:"priority,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
}

// MarshalJSON serializes the plan.
func (p Plan) MarshalJSON() ([]byte, error) {
	out := jsonPlan{
		Device:   make([]int, len(p.Device)),
		Policy:   int(p.Policy),
		Priority: p.Priority,
		Seed:     p.Seed,
	}
	for i, d := range p.Device {
		out.Device[i] = int(d)
	}
	if p.Order != nil {
		out.Order = make([][]int, len(p.Order))
		for dev, ids := range p.Order {
			out.Order[dev] = make([]int, len(ids))
			for i, id := range ids {
				out.Order[dev][i] = int(id)
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON replaces the receiver with the serialized plan.
// Structural validation against a graph happens at use time via
// Plan.Validate.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var in jsonPlan
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	out := Plan{
		Policy:   SchedulePolicy(in.Policy),
		Priority: in.Priority,
		Seed:     in.Seed,
		Device:   make([]DeviceID, len(in.Device)),
	}
	for i, d := range in.Device {
		out.Device[i] = DeviceID(d)
	}
	if in.Order != nil {
		out.Order = make([][]graph.NodeID, len(in.Order))
		for dev, ids := range in.Order {
			out.Order[dev] = make([]graph.NodeID, len(ids))
			for i, id := range ids {
				out.Order[dev][i] = graph.NodeID(id)
			}
		}
	}
	*p = out
	return nil
}

// WritePlanJSON writes a plan to w.
func WritePlanJSON(w io.Writer, p Plan) error {
	data, err := p.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
