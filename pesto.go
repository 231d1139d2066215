// Package pesto is a from-scratch Go reproduction of "Towards Optimal
// Placement and Scheduling of DNN Operations with Pesto" (Hafeez, Sun,
// Gandhi, Liu — Middleware 2021): joint operation-level placement and
// scheduling of DNN computation graphs on a CPU + 2-GPU machine, built
// on an integer linear program over a communication-augmented DAG, with
// graph coarsening, congestion constraints and memory constraints.
//
// The package is a facade over the implementation packages:
//
//   - the model zoo (RNNLM, NMT, Transformer, NASNet and the paper's
//     Figure 2 toy graph),
//   - the hardware model and discrete-event training-step simulator,
//   - the Pesto placement pipeline (coarsen → ILP → refine → expand),
//   - the Expert and Baechi baselines,
//   - compute-time profiling,
//   - the experiment harness regenerating every table and figure of
//     the paper's evaluation (§5).
//
// # Quickstart
//
//	g, _ := pesto.BuildModel("RNNLM-2-2048")
//	sys := pesto.NewSystem(2, 16<<30) // the paper's 2× V100 testbed
//	res, _ := pesto.Place(context.Background(), g, sys, pesto.PlaceOptions{})
//	step, _ := pesto.Simulate(g, sys, res.Plan)
//	fmt.Println("per-step training time:", step.Makespan)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package pesto

import (
	"context"
	"io"
	"time"

	"pesto/internal/baselines"
	"pesto/internal/fault"
	"pesto/internal/flight"
	"pesto/internal/graph"
	"pesto/internal/models"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/placement"
	"pesto/internal/profile"
	"pesto/internal/runtime"
	"pesto/internal/service"
	"pesto/internal/sim"
	"pesto/internal/trace"
	"pesto/internal/verify"
)

// Core graph types.
type (
	// Graph is a DNN computation DAG of operations and tensor edges.
	Graph = graph.Graph
	// Node is one compute operation.
	Node = graph.Node
	// NodeID identifies an operation within a Graph.
	NodeID = graph.NodeID
	// Edge is a precedence edge carrying a tensor.
	Edge = graph.Edge
	// OpKind is an operation's device affinity.
	OpKind = graph.OpKind
)

// Operation kinds (§3.2.1 of the paper: O_C, O_G, O_K).
const (
	KindCPU    = graph.KindCPU
	KindGPU    = graph.KindGPU
	KindKernel = graph.KindKernel
)

// Hardware model types.
type (
	// System is a host with one CPU, a set of GPUs and a communication
	// cost model.
	System = sim.System
	// Device is one compute device.
	Device = sim.Device
	// DeviceID identifies a device within a System.
	DeviceID = sim.DeviceID
	// Plan is a placement plus optional schedule — the output of Pesto
	// and of every baseline.
	Plan = sim.Plan
	// StepResult is the outcome of simulating one training step.
	StepResult = sim.Result
	// TransferEvent records one inter-device tensor transfer.
	TransferEvent = sim.TransferEvent
)

// Placement types.
type (
	// PlaceOptions configures the Pesto pipeline.
	PlaceOptions = placement.Options
	// PlaceResult is the outcome of Place.
	PlaceResult = placement.Result
	// Variant names one of the paper's model variants.
	Variant = models.Variant
	// Provenance records which rung of the degradation ladder produced
	// a plan; its Err() wraps ErrDegraded for fallback plans.
	Provenance = placement.Provenance
	// Stage names one rung of the degradation ladder.
	Stage = placement.Stage
	// ReplanResult is the outcome of Replan after a device failure.
	ReplanResult = placement.ReplanResult
)

// Degradation-ladder rungs, re-exported for provenance checks.
const (
	StageILP         = placement.StageILP
	StageRefine      = placement.StageRefine
	StagePipelineDP  = placement.StagePipelineDP
	StageFallback    = placement.StageFallback
	StageReplan      = placement.StageReplan
	StageIncremental = placement.StageIncremental
)

// Pipeline-parallel planning types (see DESIGN.md, "Pipeline model").
type (
	// PipelineOptions selects the microbatched pipeline planning regime:
	// set Microbatches > 0 on PlaceOptions.Pipeline and Place searches
	// joint (contiguous stage partition, microbatch schedule) pairs
	// instead of the single-shot ladder.
	PipelineOptions = pipeline.Options
	// PipelineSchedule names a microbatch discipline (auto, GPipe, 1F1B).
	PipelineSchedule = pipeline.ScheduleKind
	// PipelineInfo is the provenance a pipeline-planned Result carries:
	// the winning partition shape, schedule, bubble fraction, per-stage
	// utilization and peak memory, and the single-shot baseline.
	PipelineInfo = pipeline.Info
	// PipelineArtifact is the concrete microbatched execution artifact —
	// the replicated task graph, the scheduled simulator plan and the
	// stage metadata — as re-materialized by BuildPipelinePlan.
	PipelineArtifact = pipeline.Plan
)

// Microbatch schedule disciplines.
const (
	PipelineScheduleAuto  = pipeline.ScheduleAuto
	PipelineScheduleGPipe = pipeline.ScheduleGPipe
	PipelineSchedule1F1B  = pipeline.Schedule1F1B
)

// ErrBadPipelineSpec marks malformed pipeline spec strings (see
// ParsePipelineSpec).
var ErrBadPipelineSpec = pipeline.ErrBadSpec

// ParsePipelineSpec parses the compact CLI form of PipelineOptions,
// e.g. "mb=8,sched=1f1b,bwd=1.5". Malformed input yields an error
// wrapping ErrBadPipelineSpec.
func ParsePipelineSpec(spec string) (PipelineOptions, error) { return pipeline.ParseSpec(spec) }

// BuildPipelinePlan re-materializes the microbatched pipeline execution
// artifact for a graph placed with PlaceOptions.Pipeline: the
// microbatch-replicated task graph, the per-device schedule realizing
// the winning discipline, and the stage metadata VerifyPipelinePlan
// consumes. The construction is deterministic: equal inputs yield the
// artifact the original Place call scored.
func BuildPipelinePlan(g *Graph, sys System, opts PlaceOptions) (*PipelineArtifact, error) {
	return placement.PipelinePlan(g, sys, opts)
}

// VerifyPipelinePlan re-proves a microbatched pipeline artifact: every
// generic plan invariant plus the pipeline-shaped ones (stage
// contiguity, schedule discipline, stage/device consistency, per-stage
// peak memory, per-microbatch cross-stage ordering). Pipeline-specific
// rejections wrap ErrPipelineInvariant.
func VerifyPipelinePlan(p *PipelineArtifact, sys System) (StepResult, error) {
	return verify.CheckPipeline(p.Graph, sys, p.Sim, p.Meta)
}

// ErrPipelineInvariant marks pipeline-invariant violations; it wraps
// ErrInvariant.
var ErrPipelineInvariant = verify.ErrPipeline

// ReplanArrival rebalances a running plan onto a newly arrived (or
// recovered) GPU: the heaviest movable groups migrate onto the
// newcomer, the refinement machinery re-optimizes from both the
// incumbent and the migrated seed, and the better of the two is
// returned — so scaling up never makes the step slower. The mirror
// image of Replan's device-loss path.
func ReplanArrival(ctx context.Context, g *Graph, sys System, plan Plan, arrived DeviceID, opts PlaceOptions) (*ReplanResult, error) {
	return placement.ReplanArrival(ctx, g, sys, plan, arrived, opts)
}

// Incremental placement types (evolving graphs; see DESIGN.md,
// "Incremental model").
type (
	// PriorPlacement carries the previous graph, its plan and the chain
	// bookkeeping into Incremental.
	PriorPlacement = placement.PriorPlacement
	// IncrementalInfo is the per-solve provenance Incremental attaches:
	// dirty/clean group counts, chain depth, the chain's quality record,
	// and the cold-fallback reason when the warm path declined.
	IncrementalInfo = placement.IncrementalInfo
)

// Fault-injection types.
type (
	// FaultSpec is a parsed fault schedule (see ParseFaultSpec).
	FaultSpec = fault.Spec
	// FaultInjector realizes a FaultSpec as the deterministic hook set
	// both engines honor.
	FaultInjector = fault.Injector
	// Injector is the hook interface SimulateWithFaults accepts;
	// *FaultInjector implements it.
	Injector = sim.Injector
	// DeviceFailedError reports which device failed and when; it
	// unwraps to ErrDeviceFailed.
	DeviceFailedError = sim.DeviceFailedError
)

// Errors re-exported for matching with errors.Is.
var (
	// ErrOOM marks placements whose cumulative footprint exceeds a
	// device's memory.
	ErrOOM = sim.ErrOOM
	// ErrBadPlacement marks structurally invalid plans.
	ErrBadPlacement = sim.ErrBadPlacement
	// ErrUnsupportedSystem marks systems the Pesto ILP does not cover.
	ErrUnsupportedSystem = placement.ErrUnsupportedSystem
	// ErrDegraded marks plans served by a fallback rung of the
	// degradation ladder (via Provenance.Err()) or by Replan.
	ErrDegraded = placement.ErrDegraded
	// ErrDeviceFailed marks steps aborted by an injected whole-device
	// failure; the concrete error is a *DeviceFailedError.
	ErrDeviceFailed = sim.ErrDeviceFailed
	// ErrWorkerPanic marks runtime executions whose device or link
	// worker panicked; the panic is recovered into this error.
	ErrWorkerPanic = runtime.ErrWorkerPanic
	// ErrBadFaultSpec marks malformed fault-spec strings.
	ErrBadFaultSpec = fault.ErrBadSpec
	// ErrInvariant is the base error of every plan-verification
	// failure; the class sentinels in internal/verify (affinity,
	// colocation, memory, schedule, precedence, device/link overlap,
	// accounting) all wrap it.
	ErrInvariant = verify.ErrInvariant
	// ErrVerification marks plans rejected by post-placement
	// verification (PlaceOptions.Verify); it wraps the specific
	// invariant-class error, which in turn wraps ErrInvariant.
	ErrVerification = placement.ErrVerification
)

// NewSystem builds a system with one CPU and numGPUs GPUs of the given
// memory capacity, with the default NVLink/PCIe communication model.
// NewSystem(2, 16<<30) reproduces the paper's testbed.
func NewSystem(numGPUs int, gpuMemory int64) System {
	return sim.NewSystem(numGPUs, gpuMemory)
}

// Place runs the Pesto placement-and-scheduling pipeline (§3 of the
// paper) on g for sys.
func Place(ctx context.Context, g *Graph, sys System, opts PlaceOptions) (*PlaceResult, error) {
	return placement.Place(ctx, g, sys, opts)
}

// Simulate executes one training step of a placed graph on the
// discrete-event simulator and reports the per-step time, per-device
// utilization and the transfer timeline.
func Simulate(g *Graph, sys System, plan Plan) (StepResult, error) {
	return sim.Run(g, sys, plan)
}

// Execute runs one training step on the concurrent runtime executor
// (one goroutine per device, virtual clock) — the engine used to
// validate the simulator as in §5.4. The plan must carry an explicit
// per-device order, which Place produces with ScheduleFromILP.
func Execute(g *Graph, sys System, plan Plan, noiseSigma float64, seed int64) (time.Duration, error) {
	res, err := runtime.Execute(g, sys, plan, runtime.Options{NoiseSigma: noiseSigma, Seed: seed})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// ParseFaultSpec parses a fault schedule from its compact string form,
// e.g. "seed=42;straggler:p=0.05,mult=8;link:0-1,scale=4;mem:2,frac=0.5@2ms;fail:2@5ms".
// See internal/fault for the full grammar. Malformed input yields an
// error wrapping ErrBadFaultSpec; no input ever panics.
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.ParseSpec(s) }

// NewFaultInjector realizes a FaultSpec as a deterministic injector:
// equal specs (same seed) produce byte-identical fault schedules on
// both engines, at any parallelism.
func NewFaultInjector(spec FaultSpec) *FaultInjector { return fault.New(spec) }

// SimulateWithFaults is Simulate with every compute time, transfer time
// and memory capacity filtered through inj. Injected whole-device
// failures surface as *DeviceFailedError (errors.Is ErrDeviceFailed);
// injected memory shrinkage surfaces as ErrOOM mid-run.
func SimulateWithFaults(g *Graph, sys System, plan Plan, inj Injector) (StepResult, error) {
	return sim.RunInjected(g, sys, plan, inj)
}

// Replan recovers from the failure of a device: it migrates every
// operation off the failed device onto the survivors under the memory
// constraints, re-optimizes with the refinement machinery, and returns
// a valid degraded plan together with the recovery-makespan delta. The
// result's Provenance wraps ErrDegraded; insufficient survivor memory
// fails with ErrOOM rather than degrading around the constraint.
func Replan(ctx context.Context, g *Graph, sys System, plan Plan, failed DeviceID, opts PlaceOptions) (*ReplanResult, error) {
	return placement.Replan(ctx, g, sys, plan, failed, opts)
}

// ExpertPlan returns the manual expert placement: contiguous layer
// blocks for sequential models, branch splitting when branches is true
// (the NASNet recipe).
func ExpertPlan(g *Graph, sys System, branches bool) (Plan, error) {
	mode := baselines.ExpertLayered
	if branches {
		mode = baselines.ExpertBranches
	}
	return baselines.Expert(g, sys, mode)
}

// BaechiPlan returns the best of Baechi's m-SCT, m-ETF and m-TOPO
// placements (as the paper reports), with the winning heuristic's name
// and its simulated per-step time.
func BaechiPlan(g *Graph, sys System) (Plan, string, time.Duration, error) {
	plan, h, mk, err := baselines.BestBaechi(g, sys)
	return plan, h.String(), mk, err
}

// SingleGPUPlan places every GPU operation on the first GPU —
// TensorFlow's default behaviour.
func SingleGPUPlan(g *Graph, sys System) (Plan, error) {
	return baselines.SingleGPU(g, sys)
}

// HEFTPlan returns the classic Heterogeneous-Earliest-Finish-Time
// placement (one of the ad-hoc heuristics §6 of the paper discusses).
func HEFTPlan(g *Graph, sys System) (Plan, error) {
	return baselines.HEFT(g, sys)
}

// PlaceMultiGPU extends Place to systems with more than two GPUs — the
// §3.2.2 extension, implemented with Pesto's warm-start and refinement
// machinery generalized to k devices (the exact ILP covers the paper's
// primary two-GPU setting, to which this defers when k == 2).
func PlaceMultiGPU(ctx context.Context, g *Graph, sys System, opts PlaceOptions) (*PlaceResult, error) {
	return placement.PlaceMultiGPU(ctx, g, sys, opts)
}

// Incremental re-places an edited graph starting from a prior plan:
// groups whose sub-fingerprints are unchanged keep their devices, the
// edit-dirty neighborhood is re-solved, and the result is re-proved by
// the full invariant checker before it is returned. When the warm path
// cannot match the chain's quality record — or the edit restructures
// the graph — it falls back to a from-scratch solve and says so in
// Provenance.Incremental.FallbackReason. Chain successive calls by
// building the next PriorPlacement from the returned plan and
// IncrementalInfo.
func Incremental(ctx context.Context, g *Graph, sys System, prior PriorPlacement, opts PlaceOptions) (*PlaceResult, error) {
	return placement.Incremental(ctx, g, sys, prior, opts)
}

// WriteGantt renders the timeline of a simulated step as a text Gantt
// chart (device lanes plus link lanes with queueing markers — the
// Figure 5 visualization).
func WriteGantt(w io.Writer, g *Graph, sys System, plan Plan, res StepResult) error {
	return trace.Gantt(w, g, sys, plan, res)
}

// WriteChromeTrace exports a simulated step in the Chrome Trace Event
// format (chrome://tracing, Perfetto): one lane per device plus one per
// directional link.
func WriteChromeTrace(w io.Writer, g *Graph, sys System, plan Plan, res StepResult) error {
	return trace.WriteChromeTrace(w, g, sys, plan, res)
}

// Telemetry types, re-exported for the CLI and embedders (see
// DESIGN.md, "Observability model"). A nil *ObsRecorder — and a
// context without one — is a valid no-op everywhere.
type (
	// ObsRecorder collects spans, counters and samples from the solver
	// pipeline; attach it to a context with WithObsRecorder.
	ObsRecorder = obs.Recorder
	// ObsRecord is one finished telemetry record.
	ObsRecord = obs.Record
	// ObsSink receives finished records.
	ObsSink = obs.Sink
	// ObsMemorySink buffers records in memory.
	ObsMemorySink = obs.MemorySink
)

// NewObsRecorder builds a recorder fanning out to the given sinks.
func NewObsRecorder(sinks ...ObsSink) *ObsRecorder { return obs.NewRecorder(sinks...) }

// NewObsMemorySink buffers telemetry records in memory, for later
// export with WriteChromeTraceObs.
func NewObsMemorySink() *ObsMemorySink { return obs.NewMemorySink() }

// NewObsJSONLSink streams every telemetry record as one JSON log line.
func NewObsJSONLSink(w io.Writer) ObsSink { return obs.NewJSONLSink(w) }

// WithObsRecorder attaches a recorder to the context; Place,
// PlaceMultiGPU and Replan emit their telemetry to it.
func WithObsRecorder(ctx context.Context, rec *ObsRecorder) context.Context {
	return obs.Into(ctx, rec)
}

// WriteChromeTraceObs exports the simulated step and the solver's
// telemetry records as one Chrome Trace Event file on a shared
// timeline: the execution lanes of WriteChromeTrace plus a solver
// process holding the span tree, the incumbent/bound counter tracks
// and instant markers.
func WriteChromeTraceObs(w io.Writer, g *Graph, sys System, plan Plan, res StepResult, recs []ObsRecord) error {
	return trace.WriteChromeTraceObs(w, g, sys, plan, res, recs)
}

// NewMultiHostSystem builds a hierarchical topology: hosts × gpusPerHost
// GPUs with NVLink within a host and a datacenter network between hosts
// (the hierarchical communication models §3.2.2 mentions).
func NewMultiHostSystem(hosts, gpusPerHost int, gpuMemory int64) System {
	return sim.NewMultiHostSystem(hosts, gpusPerHost, gpuMemory)
}

// WritePlan serializes a plan as JSON.
func WritePlan(w io.Writer, p Plan) error { return sim.WritePlanJSON(w, p) }

// BuildModel constructs one of the paper's model variants by name
// (e.g. "RNNLM-2-2048", "NMT-4-1024", "Transformer-6-16-2048",
// "NASNet-4-212", or the scaled-down "*-small" counterparts).
func BuildModel(name string) (*Graph, error) {
	v, err := models.FindVariant(name)
	if err != nil {
		return nil, err
	}
	return v.Build()
}

// ModelVariants lists the paper's eleven full-scale variants.
func ModelVariants() []Variant { return models.PaperVariants() }

// VerifyPlan re-proves a plan against the independent invariant checker
// and one simulated step: device affinity, colocation integrity, memory
// capacity, schedule shape, precedence through communication, device
// and link serialization, FCFS link discipline and makespan accounting.
// It returns the simulated step so callers get the makespan for free.
// Rejections wrap ErrInvariant plus a per-class sentinel (see
// internal/verify).
func VerifyPlan(g *Graph, sys System, plan Plan) (StepResult, error) {
	return verify.Check(g, sys, plan)
}

// MakespanLowerBound computes an LP-relaxation lower bound no feasible
// placement/schedule of g on sys can beat — the oracle the sweep tests
// hold every engine to.
func MakespanLowerBound(g *Graph, sys System) (time.Duration, error) {
	return verify.LowerBound(g, sys)
}

// ProfileCompute estimates per-operation compute times by running the
// given number of training iterations on the runtime executor (§3.1;
// the paper uses 100). It overwrites g's costs with the measured means
// and returns the normalized-stddev CDF (sorted, small ops filtered at
// 10µs) — the Figure 4a data.
func ProfileCompute(g *Graph, iterations int, seed int64) ([]float64, error) {
	prof, err := profile.Compute(g, profile.Options{Iterations: iterations, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := prof.ApplyTo(g); err != nil {
		return nil, err
	}
	return prof.StddevCDF(10 * time.Microsecond), nil
}

// Flight-recorder repro bundles (see DESIGN.md, "Distributed tracing,
// flight recorder, and SLOs"). The daemon captures one when a solve
// crosses its rolling-p99 baseline, the ladder collapses to the
// fallback rung, verification fails or an SLO burns too fast;
// `pesto -replay-bundle` re-executes it byte-deterministically.
type (
	// FlightBundle is one self-contained repro capture: graph, options,
	// seed, spans, and the served response bytes.
	FlightBundle = flight.Bundle
	// FlightReplayResult reports whether a replay reproduced the
	// captured response byte-for-byte.
	FlightReplayResult = service.ReplayResult
)

// ReadFlightBundle loads and schema-checks one bundle file.
func ReadFlightBundle(path string) (FlightBundle, error) { return flight.ReadBundleFile(path) }

// ReplayFlightBundle re-executes a captured bundle: same graph, same
// normalized options, same seed. parallel only changes speed, never
// bytes (zero = GOMAXPROCS).
func ReplayFlightBundle(ctx context.Context, b FlightBundle, parallel int) (FlightReplayResult, error) {
	return service.ReplayBundle(ctx, b, parallel)
}

// StageForDeadline maps a solve budget onto the degradation ladder's
// entry rung: tight budgets start at the heuristic rung, generous ones
// at the exact ILP.
func StageForDeadline(budget time.Duration) Stage { return placement.StageForDeadline(budget) }
