// Package comm models inter-device communication for Pesto. Following
// §3.1 of the paper, the transfer time of a tensor over a link is a
// linear function of its size, T = β0 + β1·bytes, with the coefficients
// fitted per link type (CPU→GPU, GPU→CPU, GPU→GPU) by ordinary least
// squares over profiled transfer samples.
//
// The package also carries the default link profiles used throughout the
// repository; their magnitudes mimic the paper's testbed (PCIe 3.0 x16
// for CPU↔GPU, NVLink 2.0 for GPU↔GPU) so that communication can be
// "several orders of magnitude higher than the compute time of some
// operations" (§3), which is what makes Pesto's congestion constraints
// matter.
package comm

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// LinkType classifies a communication link by the device kinds at its
// endpoints, matching the paper's communication classification.
type LinkType int

const (
	// CPUToGPU is host-to-device traffic (PCIe in the paper's testbed).
	CPUToGPU LinkType = iota + 1
	// GPUToCPU is device-to-host traffic.
	GPUToCPU
	// GPUToGPU is peer-to-peer traffic (NVLink in the paper's testbed).
	GPUToGPU
)

// String implements fmt.Stringer.
func (t LinkType) String() string {
	switch t {
	case CPUToGPU:
		return "CPU→GPU"
	case GPUToCPU:
		return "GPU→CPU"
	case GPUToGPU:
		return "GPU→GPU"
	default:
		return fmt.Sprintf("LinkType(%d)", int(t))
	}
}

// Model is the fitted linear communication-time model for one link type:
// Time(bytes) = Beta0 + Beta1·bytes.
type Model struct {
	Type LinkType
	// Beta0 is the fixed per-transfer latency.
	Beta0 time.Duration
	// Beta1 is the per-byte transfer time in nanoseconds per byte.
	Beta1 float64
	// R2 is the coefficient of determination of the fit that produced
	// the model, or 1 for analytically constructed models.
	R2 float64
}

// Time evaluates the model for a transfer of the given size. Negative
// sizes are treated as zero; predictions are floored at zero.
func (m Model) Time(bytes int64) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	ns := float64(m.Beta0.Nanoseconds()) + m.Beta1*float64(bytes)
	if ns < 0 {
		ns = 0
	}
	return time.Duration(math.Round(ns)) * time.Nanosecond
}

// Sample is one profiled transfer: a payload size and the observed
// transfer time.
type Sample struct {
	Bytes int64
	Time  time.Duration
}

// Errors reported by Fit.
var (
	ErrTooFewSamples = errors.New("need at least two samples with distinct sizes")
)

// Fit performs ordinary least squares of time on bytes and returns the
// fitted Model for the link type, including the R² of the fit. This is
// the regression step of §3.1 (the paper reports R² of 0.92–0.99).
func Fit(t LinkType, samples []Sample) (Model, error) {
	if len(samples) < 2 {
		return Model{}, fmt.Errorf("fit %v: %w", t, ErrTooFewSamples)
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(samples))
	for _, s := range samples {
		x := float64(s.Bytes)
		y := float64(s.Time.Nanoseconds())
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Model{}, fmt.Errorf("fit %v: %w", t, ErrTooFewSamples)
	}
	beta1 := (n*sxy - sx*sy) / den
	beta0 := (sy - beta1*sx) / n

	// R² = 1 - SS_res / SS_tot.
	meanY := sy / n
	var ssRes, ssTot float64
	for _, s := range samples {
		y := float64(s.Time.Nanoseconds())
		pred := beta0 + beta1*float64(s.Bytes)
		ssRes += (y - pred) * (y - pred)
		ssTot += (y - meanY) * (y - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Model{
		Type:  t,
		Beta0: time.Duration(math.Round(beta0)),
		Beta1: beta1,
		R2:    r2,
	}, nil
}

// Default link profiles. Magnitudes follow published microbenchmarks of
// the paper's testbed class (Li et al., "Evaluating Modern GPU
// Interconnect", cited by the paper as [42]): NVLink 2.0 ≈ 22 GB/s
// effective single direction with ~10 µs launch latency; PCIe 3.0 x16
// ≈ 10 GB/s with ~15 µs latency.
func defaultModels() map[LinkType]Model {
	return map[LinkType]Model{
		GPUToGPU: {Type: GPUToGPU, Beta0: 10 * time.Microsecond, Beta1: 1e9 / 22e9, R2: 1},
		CPUToGPU: {Type: CPUToGPU, Beta0: 15 * time.Microsecond, Beta1: 1e9 / 10e9, R2: 1},
		GPUToCPU: {Type: GPUToCPU, Beta0: 15 * time.Microsecond, Beta1: 1e9 / 10e9, R2: 1},
	}
}

// CostModel predicts transfer times for every link type. It is the
// object Pesto's ILP and the simulator share so that planned and
// simulated communication times agree.
type CostModel struct {
	models map[LinkType]Model
	// scale divides predicted times; >1 models a faster interconnect
	// (used by the Figure 8b sweep).
	scale float64
}

// NewCostModel returns a cost model with the default NVLink/PCIe
// profiles.
func NewCostModel() *CostModel {
	return &CostModel{models: defaultModels(), scale: 1}
}

// Scaled returns a copy of the cost model with all transfer times divided
// by factor (factor > 1 means a faster interconnect). Factor must be
// positive.
func (cm *CostModel) Scaled(factor float64) *CostModel {
	if factor <= 0 {
		factor = 1
	}
	out := &CostModel{models: make(map[LinkType]Model, len(cm.models)), scale: cm.scale * factor}
	for k, v := range cm.models {
		out.models[k] = v
	}
	return out
}

// Model returns the fitted model for a link type.
func (cm *CostModel) Model(t LinkType) Model {
	return cm.models[t]
}

// Time predicts the transfer time of bytes over a link of type t,
// honoring the interconnect scale factor.
func (cm *CostModel) Time(t LinkType, bytes int64) time.Duration {
	d := cm.models[t].Time(bytes)
	if cm.scale != 1 {
		d = time.Duration(float64(d) / cm.scale)
	}
	return d
}
