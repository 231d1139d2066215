// Package sim provides the hardware model and discrete-event simulator
// that stand in for the paper's TensorFlow testbed (2× V100 + NVLink).
// It executes a placed (and optionally explicitly scheduled) DNN DAG on
// simulated devices connected by one-directional First-Come-First-Served
// communication links, the exact congestion semantics Pesto's ILP models
// (§3.2.1: "we model inter-device communication links as a
// First-Come-First-Served queue", no preemption anywhere).
//
// The simulator is deliberately shared between planning and evaluation:
// Pesto's ILP, the baselines, and the experiment harness all measure
// per-step training time through Run, so comparisons are apples to
// apples — mirroring §5.4 of the paper, where a simulator validated
// against the implementation (0.1–11.3% error) drives the exploratory
// studies.
package sim

import (
	"fmt"
	"time"

	"pesto/internal/comm"
	"pesto/internal/graph"
)

// DeviceID identifies a device within a System. The CPU is always
// device 0; GPUs follow.
type DeviceID int

// DeviceKind distinguishes the CPU host from GPU accelerators.
type DeviceKind int

const (
	// CPU is the host processor; it executes KindCPU and KindKernel
	// operations and is assumed to have ample memory.
	CPU DeviceKind = iota + 1
	// GPU is an accelerator with finite memory executing KindGPU
	// operations.
	GPU
)

// String implements fmt.Stringer.
func (k DeviceKind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// Device describes one compute device.
type Device struct {
	ID   DeviceID
	Kind DeviceKind
	Name string
	// Memory is the device memory capacity in bytes; zero means
	// unlimited (used for the CPU).
	Memory int64
	// Speed scales compute time: an operation of cost p runs in
	// p/Speed. 1.0 matches the paper's V100 baseline; the Figure 8a
	// sweep raises it.
	Speed float64
	// Failed marks a device that has died (or been administratively
	// drained). Failed devices keep their ID — device IDs index plan
	// vectors — but GPUs() skips them and CompatibleDevice rejects
	// them, so Validate refuses plans that still use them and every
	// placement heuristic routes around them. See WithFailedDevice and
	// placement.Replan.
	Failed bool
}

// System is a host with one CPU and a set of GPUs, plus the fitted
// communication cost model shared by the planner and the simulator.
type System struct {
	Devices []Device
	Comm    *comm.CostModel

	// CongestionFree, when set, makes every directional link infinitely
	// parallel: transfers never queue behind each other. Real hardware
	// is never like this (§3.2.1) — the flag exists so planners can be
	// handed a congestion-blind world model for the Figure 5 ablation.
	CongestionFree bool

	// LinkOverrides refines the kind-based communication model with
	// per-device-pair models — the "hierarchical and heterogeneous
	// communication models" §3.2.2 mentions (e.g. NVLink within a host,
	// Ethernet between hosts). Keys are directed (from, to) pairs;
	// missing pairs fall back to the kind-based model.
	LinkOverrides map[[2]DeviceID]comm.Model
}

// NewSystem builds a system with one CPU and numGPUs GPUs of the given
// memory capacity, at unit compute speed, with the default NVLink/PCIe
// communication model. It mirrors the paper's testbed when called as
// NewSystem(2, 16<<30).
func NewSystem(numGPUs int, gpuMemory int64) System {
	s := System{Comm: comm.NewCostModel()}
	s.Devices = append(s.Devices, Device{ID: 0, Kind: CPU, Name: "cpu:0", Speed: 1})
	for i := 0; i < numGPUs; i++ {
		s.Devices = append(s.Devices, Device{
			ID:     DeviceID(i + 1),
			Kind:   GPU,
			Name:   fmt.Sprintf("gpu:%d", i),
			Memory: gpuMemory,
			Speed:  1,
		})
	}
	return s
}

// Clone returns a copy of the system whose Devices slice and
// LinkOverrides map are independent of the receiver's, so the copy can
// be mutated (speed scaling, memory lifting) while other goroutines
// still read the original. The communication cost model is shared: it
// is immutable after construction (Scaled returns a new model).
func (s System) Clone() System {
	out := System{Comm: s.Comm, CongestionFree: s.CongestionFree}
	if s.Devices != nil {
		out.Devices = append([]Device(nil), s.Devices...)
	}
	if s.LinkOverrides != nil {
		out.LinkOverrides = make(map[[2]DeviceID]comm.Model, len(s.LinkOverrides))
		for k, m := range s.LinkOverrides {
			out.LinkOverrides[k] = m
		}
	}
	return out
}

// CPUID returns the device ID of the host CPU.
func (s System) CPUID() DeviceID { return 0 }

// GPUs returns the IDs of the healthy GPU devices in order. Failed
// devices are skipped, so planners built on GPUs() automatically
// route around them.
func (s System) GPUs() []DeviceID {
	var out []DeviceID
	for _, d := range s.Devices {
		if d.Kind == GPU && !d.Failed {
			out = append(out, d.ID)
		}
	}
	return out
}

// WithFailedDevice returns a copy of the system with the given device
// marked failed. Plans placing work on it no longer Validate, and the
// placement machinery (which enumerates candidates via GPUs and
// CompatibleDevice) only considers the survivors.
func (s System) WithFailedDevice(id DeviceID) System {
	out := s.Clone()
	if int(id) >= 0 && int(id) < len(out.Devices) {
		out.Devices[id].Failed = true
	}
	return out
}

// Device returns the device with the given ID.
func (s System) Device(id DeviceID) (Device, bool) {
	if id < 0 || int(id) >= len(s.Devices) {
		return Device{}, false
	}
	return s.Devices[id], true
}

// kind is the kind of a device, zero for an unknown ID.
func (s System) kind(id DeviceID) DeviceKind {
	if id < 0 || int(id) >= len(s.Devices) {
		return 0
	}
	return s.Devices[id].Kind
}

// WithComputeSpeed returns a copy of the system with every device's
// compute speed multiplied by factor (> 1 is faster hardware, the
// Figure 8a axis).
func (s System) WithComputeSpeed(factor float64) System {
	out := System{Comm: s.Comm, Devices: append([]Device(nil), s.Devices...), CongestionFree: s.CongestionFree, LinkOverrides: s.LinkOverrides}
	for i := range out.Devices {
		out.Devices[i].Speed *= factor
	}
	return out
}

// WithCommSpeed returns a copy of the system with the interconnect sped
// up (factor > 1) or slowed down (factor < 1), the Figure 8b axis.
func (s System) WithCommSpeed(factor float64) System {
	out := System{Comm: s.Comm.Scaled(factor), Devices: append([]Device(nil), s.Devices...), CongestionFree: s.CongestionFree}
	if s.LinkOverrides != nil {
		out.LinkOverrides = make(map[[2]DeviceID]comm.Model, len(s.LinkOverrides))
		for k, m := range s.LinkOverrides {
			scaled := m
			scaled.Beta0 = time.Duration(float64(m.Beta0) / factor)
			scaled.Beta1 = m.Beta1 / factor
			out.LinkOverrides[k] = scaled
		}
	}
	return out
}

// LinkTypeBetween classifies the link between two devices for the
// communication model.
func (s System) LinkTypeBetween(from, to DeviceID) comm.LinkType {
	fk, tk := s.kind(from), s.kind(to)
	switch {
	case fk == CPU && tk == GPU:
		return comm.CPUToGPU
	case fk == GPU && tk == CPU:
		return comm.GPUToCPU
	default:
		return comm.GPUToGPU
	}
}

// TransferTime predicts the time to move bytes from one device to
// another; zero when the devices are the same (§2.1: colocated
// communication latency is negligible). Per-pair link overrides take
// precedence over the kind-based model.
func (s System) TransferTime(from, to DeviceID, bytes int64) time.Duration {
	if from == to {
		return 0
	}
	if m, ok := s.LinkOverrides[[2]DeviceID{from, to}]; ok {
		return m.Time(bytes)
	}
	return s.Comm.Time(s.LinkTypeBetween(from, to), bytes)
}

// NewMultiHostSystem builds a hierarchical system: hosts × gpusPerHost
// GPUs where intra-host GPU pairs communicate over NVLink and
// inter-host pairs over a datacenter network (≈25 GbE: 50µs latency,
// ~3 GB/s). One CPU stands in for all hosts' input pipelines.
func NewMultiHostSystem(hosts, gpusPerHost int, gpuMemory int64) System {
	s := NewSystem(hosts*gpusPerHost, gpuMemory)
	network := comm.Model{
		Type:  comm.GPUToGPU,
		Beta0: 50 * time.Microsecond,
		Beta1: 1e9 / 3e9,
		R2:    1,
	}
	s.LinkOverrides = make(map[[2]DeviceID]comm.Model)
	gpus := s.GPUs()
	hostOf := func(d DeviceID) int { return (int(d) - 1) / gpusPerHost }
	for _, a := range gpus {
		for _, b := range gpus {
			if a != b && hostOf(a) != hostOf(b) {
				s.LinkOverrides[[2]DeviceID{a, b}] = network
			}
		}
	}
	return s
}

// CompatibleDevice reports whether an operation of the given kind may be
// placed on the device (device affinity, §3.2.1).
func (s System) CompatibleDevice(kind graph.OpKind, id DeviceID) bool {
	d, ok := s.Device(id)
	if !ok || d.Failed {
		return false
	}
	switch kind {
	case graph.KindGPU:
		return d.Kind == GPU
	case graph.KindCPU, graph.KindKernel:
		return d.Kind == CPU
	default:
		return false
	}
}
