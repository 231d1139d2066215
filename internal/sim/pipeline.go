package sim

import (
	"fmt"
	"time"

	"pesto/internal/graph"
)

// PipelineMeta annotates a microbatch-replicated execution graph so the
// simulator (and the independent verifier) can account for it at
// pipeline granularity. The graph it describes replicates each pipeline
// stage into one forward task per microbatch — plus, for training
// pipelines, one backward task per microbatch — and PipelineMeta maps
// every node of that graph back to its (stage, microbatch, direction)
// coordinates. Host-side source tasks (input pre-processing on the
// CPU) carry stage and microbatch -1/m.
type PipelineMeta struct {
	// Stages is the number of pipeline stages S.
	Stages int
	// Microbatches is the number of microbatches M the step is split
	// into.
	Microbatches int
	// Discipline names the schedule that produced the per-device
	// orders: "gpipe", "1f1b", or "" when no discipline is claimed
	// (only the generic pipeline invariants then apply).
	Discipline string
	// StageOf maps each node of the pipeline graph to its stage index
	// in [0, Stages), or -1 for host-side source tasks.
	StageOf []int
	// MBOf maps each node to its microbatch index in [0, Microbatches).
	MBOf []int
	// Backward marks backward (gradient) tasks.
	Backward []bool
	// StageDevice is the device each stage's tasks run on.
	StageDevice []DeviceID
	// StageWeightBytes is the resident parameter footprint of each
	// stage — paid once per stage, independent of microbatch count.
	StageWeightBytes []int64
	// StageActBytes is the per-microbatch activation footprint a stage
	// holds from the moment its forward task for a microbatch starts
	// until that microbatch's backward task on the stage finishes (or
	// until the forward finishes, for inference pipelines with no
	// backward tasks).
	StageActBytes []int64
}

// Validate checks that the metadata is shaped for a graph of n nodes.
func (m PipelineMeta) Validate(n int) error {
	if m.Stages <= 0 || m.Microbatches <= 0 {
		return fmt.Errorf("pipeline meta: %d stages x %d microbatches", m.Stages, m.Microbatches)
	}
	if len(m.StageOf) != n || len(m.MBOf) != n || len(m.Backward) != n {
		return fmt.Errorf("pipeline meta: per-node slices sized %d/%d/%d for %d nodes",
			len(m.StageOf), len(m.MBOf), len(m.Backward), n)
	}
	if len(m.StageDevice) != m.Stages || len(m.StageWeightBytes) != m.Stages || len(m.StageActBytes) != m.Stages {
		return fmt.Errorf("pipeline meta: per-stage slices sized %d/%d/%d for %d stages",
			len(m.StageDevice), len(m.StageWeightBytes), len(m.StageActBytes), m.Stages)
	}
	for id, s := range m.StageOf {
		if s < -1 || s >= m.Stages {
			return fmt.Errorf("pipeline meta: node %d in stage %d of %d", id, s, m.Stages)
		}
		if mb := m.MBOf[id]; mb < -1 || mb >= m.Microbatches {
			return fmt.Errorf("pipeline meta: node %d in microbatch %d of %d", id, mb, m.Microbatches)
		}
	}
	return nil
}

// PipelineStageStats is the per-stage accounting of one simulated
// pipeline step.
type PipelineStageStats struct {
	// Device is the stage's device.
	Device DeviceID
	// Busy is the total compute time the stage's tasks occupied the
	// device.
	Busy time.Duration
	// Utilization is Busy / makespan — the fill fraction of the
	// stage's lane in the pipeline diagram.
	Utilization float64
	// PeakMemory is the stage's peak resident footprint: weights plus
	// the largest number of simultaneously live activations observed
	// in the simulated timeline times the per-microbatch activation
	// footprint.
	PeakMemory int64
	// PeakInFlight is the largest number of microbatches whose
	// activations were live on the stage at once (the quantity 1F1B
	// bounds near S and GPipe lets grow to M).
	PeakInFlight int
}

// PipelineAccounting reduces a simulated pipeline execution to
// per-stage statistics and the overall bubble fraction
// 1 - sum(stage busy) / (S * makespan): the fraction of the S device
// lanes the schedule left idle.
func PipelineAccounting(g *graph.Graph, meta PipelineMeta, res Result) ([]PipelineStageStats, float64, error) {
	if err := meta.Validate(g.NumNodes()); err != nil {
		return nil, 0, err
	}
	stats := make([]PipelineStageStats, meta.Stages)
	for s := range stats {
		stats[s].Device = meta.StageDevice[s]
	}
	// Busy time per stage from the realized windows (compute only:
	// transfers live on links, not device lanes).
	for _, n := range g.Nodes() {
		s := meta.StageOf[n.ID]
		if s < 0 {
			continue
		}
		stats[s].Busy += res.Finish[n.ID] - res.Start[n.ID]
	}
	// Activation lifetimes: live from forward start to the matching
	// backward finish (forward finish when no backward task exists).
	type window struct{ start, end time.Duration }
	live := make(map[[2]int]window) // (stage, microbatch) -> window
	for _, n := range g.Nodes() {
		s := meta.StageOf[n.ID]
		if s < 0 {
			continue
		}
		key := [2]int{s, meta.MBOf[n.ID]}
		w, ok := live[key]
		if !ok {
			w = window{start: res.Start[n.ID], end: res.Finish[n.ID]}
		} else {
			if res.Start[n.ID] < w.start {
				w.start = res.Start[n.ID]
			}
			if res.Finish[n.ID] > w.end {
				w.end = res.Finish[n.ID]
			}
		}
		live[key] = w
	}
	type edge struct {
		t     time.Duration
		delta int
	}
	perStage := make([][]edge, meta.Stages)
	for key, w := range live {
		perStage[key[0]] = append(perStage[key[0]], edge{w.start, +1}, edge{w.end, -1})
	}
	for s := range perStage {
		es := perStage[s]
		// Insertion-order independence: sort by time, releases before
		// acquisitions at the same instant (back-to-back microbatches
		// do not double-count).
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && (es[j].t < es[j-1].t || (es[j].t == es[j-1].t && es[j].delta < es[j-1].delta)); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		cur, peak := 0, 0
		for _, e := range es {
			cur += e.delta
			if cur > peak {
				peak = cur
			}
		}
		stats[s].PeakInFlight = peak
		stats[s].PeakMemory = meta.StageWeightBytes[s] + int64(peak)*meta.StageActBytes[s]
		if res.Makespan > 0 {
			stats[s].Utilization = float64(stats[s].Busy) / float64(res.Makespan)
		}
	}
	var busy time.Duration
	for _, st := range stats {
		busy += st.Busy
	}
	bubble := 0.0
	if res.Makespan > 0 && meta.Stages > 0 {
		bubble = 1 - float64(busy)/(float64(meta.Stages)*float64(res.Makespan))
		if bubble < 0 {
			bubble = 0
		}
	}
	return stats, bubble, nil
}

// WithDeviceSpeed returns a copy of the system with one device's
// compute speed replaced (not scaled): the heterogeneous-hardware
// knob, where WithComputeSpeed scales the whole pool uniformly.
func (s System) WithDeviceSpeed(id DeviceID, speed float64) System {
	out := System{Comm: s.Comm, Devices: append([]Device(nil), s.Devices...), CongestionFree: s.CongestionFree, LinkOverrides: s.LinkOverrides}
	if int(id) < len(out.Devices) && speed > 0 {
		out.Devices[id].Speed = speed
	}
	return out
}

// WithGPUSpeeds returns a copy of the system with the i-th usable
// GPU's compute speed set to speeds[i] (extra entries are ignored,
// missing ones leave the GPU at its current speed; non-positive
// entries are skipped). This is the `-device-speeds` CLI surface.
func (s System) WithGPUSpeeds(speeds []float64) System {
	for i, d := range s.GPUs() {
		if i >= len(speeds) {
			break
		}
		s = s.WithDeviceSpeed(d, speeds[i])
	}
	return s
}
