package sim

import (
	"errors"
	"fmt"
	"time"

	"pesto/internal/graph"
)

// ErrDeviceFailed marks a simulation or execution aborted because a
// device failed (was injected to fail) while it still had work to do.
// Match with errors.Is; the concrete *DeviceFailedError carries the
// device and the virtual failure time, which Replan consumes.
var ErrDeviceFailed = errors.New("device failed")

// DeviceFailedError reports which device failed and when. It unwraps to
// ErrDeviceFailed.
type DeviceFailedError struct {
	Device DeviceID
	At     time.Duration
}

func (e *DeviceFailedError) Error() string {
	return fmt.Sprintf("device %d failed at %v", e.Device, e.At)
}

// Unwrap makes errors.Is(err, ErrDeviceFailed) work.
func (e *DeviceFailedError) Unwrap() error { return ErrDeviceFailed }

// Injector is the fault-injection hook shared by the discrete-event
// simulator (Run) and the concurrent runtime executor
// (internal/runtime.Execute). Implementations must be pure: every
// method is a function of its arguments and the injector's immutable
// configuration only, never of call order or wall-clock time. That
// purity is what makes fault-injected runs byte-identical across
// repeats and across worker counts — both engines may call the hooks
// from many goroutines in arbitrary interleavings.
//
// internal/fault provides the canonical seeded implementation; a nil
// Injector everywhere means "no faults".
type Injector interface {
	// OpDuration returns the (possibly perturbed) execution time of an
	// operation that starts at virtual time start with nominal duration
	// base on the given device.
	OpDuration(id graph.NodeID, dev DeviceID, start, base time.Duration) time.Duration
	// TransferDuration returns the (possibly perturbed) service time of
	// a transfer whose link service begins at virtual time start with
	// nominal duration base.
	TransferDuration(from, to DeviceID, bytes int64, start, base time.Duration) time.Duration
	// DeviceCapacity returns the effective memory capacity of a device
	// at virtual time at, given its configured capacity base. Shrinking
	// capacities surface as ErrOOM mid-run.
	DeviceCapacity(dev DeviceID, at time.Duration, base int64) int64
	// FailureTime reports the virtual time at which the device fails
	// outright, if it does.
	FailureTime(dev DeviceID) (time.Duration, bool)
}

// RunInjected simulates one training step like Run, with every
// compute, communication and memory quantity filtered through the
// fault injector. A nil injector is exactly Run.
//
// Fault semantics:
//
//   - Op and transfer durations are rewritten by the injector's pure
//     hooks (stragglers, degraded or stalled links).
//   - Before an operation starts on a device, the device's cumulative
//     footprint (all operations started there so far, plus the new one)
//     is checked against the injector's effective capacity at that
//     virtual time; exceeding it aborts the run with an error wrapping
//     ErrOOM.
//   - An operation that would start on — or still be running on — a
//     device at its injected failure time aborts the run with a
//     *DeviceFailedError (errors.Is ErrDeviceFailed).
//
// Determinism: with a fixed plan and injector, repeated calls return
// identical Results (the event order is a pure function of the inputs).
func RunInjected(g *graph.Graph, sys System, plan Plan, inj Injector) (Result, error) {
	return run(g, sys, plan, inj)
}
