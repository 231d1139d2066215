package service

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"pesto/internal/graph"
	"pesto/internal/jsonlex"
	"pesto/internal/pipeline"
	"pesto/internal/placement"
	"pesto/internal/sim"
)

// Errors reported by request decoding and validation. Every one of
// them maps to a 4xx status; nothing a client sends may panic the
// daemon (the fuzz target holds the decoder to this).
var (
	// ErrBadRequest marks malformed or invalid request bodies (400).
	ErrBadRequest = errors.New("bad request")
	// ErrTooLarge marks request bodies or graphs over the configured
	// limits (413).
	ErrTooLarge = errors.New("request too large")
)

// PlaceRequest is the JSON body of POST /v1/place and POST /v1/trace:
// a computation graph in the internal/graph codec plus normalized
// placement options.
type PlaceRequest struct {
	// Graph is the computation DAG to place, in the same JSON schema
	// WriteGraph emits. Decoding validates structure and acyclicity.
	Graph *graph.Graph `json:"graph"`
	// Options configures the target system and the solve.
	Options RequestOptions `json:"options"`
}

// RequestOptions is the client-facing option surface. The zero value
// of every field means "use the default"; normalized resolves the
// defaults and bounds so equal requests always mean equal cache keys.
type RequestOptions struct {
	// GPUs is the number of GPUs per host; zero means 2 (the paper's
	// testbed).
	GPUs int `json:"gpus,omitempty"`
	// Hosts is the number of hosts; zero means 1. Hosts > 1 builds the
	// hierarchical multi-host topology (NVLink within a host, a
	// datacenter link between hosts).
	Hosts int `json:"hosts,omitempty"`
	// GPUMemBytes is the per-GPU memory capacity; zero means 16 GiB.
	GPUMemBytes int64 `json:"gpuMemBytes,omitempty"`
	// BudgetMs bounds the solve in milliseconds and selects the
	// degradation-ladder entry rung (tight budgets start at the
	// heuristic rung, generous ones at the exact ILP). Zero means the
	// server's default budget; values above the server's maximum are
	// clamped down to it.
	BudgetMs int64 `json:"budgetMs,omitempty"`
	// Seed seeds the deterministic parts of the heuristics.
	Seed int64 `json:"seed,omitempty"`
	// ScheduleFromILP attaches an explicit per-device order to the plan
	// (Pesto's control dependencies) instead of placement-only FIFO.
	ScheduleFromILP bool `json:"scheduleFromILP,omitempty"`
	// Verify requests the verification verdict in the response. It
	// does not change the plan: every solve that fills the cache is
	// verified unconditionally (a poisoned cache entry is impossible),
	// so this flag only surfaces what already happened.
	Verify bool `json:"verify,omitempty"`
	// NoCache bypasses the plan cache for this request: the solve runs
	// fresh and its result is not stored. Benchmarks and ablations use
	// it; production callers should not.
	NoCache bool `json:"noCache,omitempty"`
	// PipelineMicrobatches switches the solve into the microbatched
	// pipeline-parallel planning regime with this many microbatches.
	// Zero (the default) keeps the classic single-shot ladder.
	PipelineMicrobatches int `json:"pipelineMicrobatches,omitempty"`
	// PipelineSchedule pins the microbatch discipline ("gpipe" or
	// "1f1b"); empty means the planner scores both and keeps the
	// better. Only valid with PipelineMicrobatches > 0.
	PipelineSchedule string `json:"pipelineSchedule,omitempty"`
}

// normalized resolves defaults and enforces bounds. The returned
// options are what the cache key and the solver consume; requests that
// normalize equal are the same request.
func (o RequestOptions) normalized(cfg Config) (RequestOptions, error) {
	if o.GPUs == 0 {
		o.GPUs = 2
	}
	if o.GPUs < 2 || o.GPUs > 64 {
		return o, fmt.Errorf("gpus %d out of range [2,64]: %w", o.GPUs, ErrBadRequest)
	}
	if o.Hosts == 0 {
		o.Hosts = 1
	}
	if o.Hosts < 1 || o.Hosts > 16 {
		return o, fmt.Errorf("hosts %d out of range [1,16]: %w", o.Hosts, ErrBadRequest)
	}
	if o.GPUMemBytes == 0 {
		o.GPUMemBytes = 16 << 30
	}
	if o.GPUMemBytes < 0 {
		return o, fmt.Errorf("gpuMemBytes %d negative: %w", o.GPUMemBytes, ErrBadRequest)
	}
	if o.BudgetMs < 0 {
		return o, fmt.Errorf("budgetMs %d negative: %w", o.BudgetMs, ErrBadRequest)
	}
	if o.BudgetMs == 0 {
		// A sub-millisecond server default must not truncate to zero:
		// BudgetMs 0 would mean "no ILP time limit".
		if o.BudgetMs = cfg.DefaultBudget.Milliseconds(); o.BudgetMs == 0 {
			o.BudgetMs = 1
		}
	}
	if max := cfg.MaxBudget.Milliseconds(); o.BudgetMs > max {
		o.BudgetMs = max
	}
	if o.PipelineMicrobatches < 0 || o.PipelineMicrobatches > pipeline.MaxMicrobatches {
		return o, fmt.Errorf("pipelineMicrobatches %d out of range [0,%d]: %w",
			o.PipelineMicrobatches, pipeline.MaxMicrobatches, ErrBadRequest)
	}
	if o.PipelineSchedule != "" {
		if o.PipelineMicrobatches == 0 {
			return o, fmt.Errorf("pipelineSchedule without pipelineMicrobatches: %w", ErrBadRequest)
		}
		kind, err := pipeline.ParseSchedule(o.PipelineSchedule)
		if err != nil {
			return o, fmt.Errorf("pipelineSchedule %q: %v: %w", o.PipelineSchedule, err, ErrBadRequest)
		}
		// Canonical name, so aliases ("fill-drain", "pipedream") share a
		// cache key with their canonical spelling; "auto" folds into the
		// empty default for the same reason.
		if kind == pipeline.ScheduleAuto {
			o.PipelineSchedule = ""
		} else {
			o.PipelineSchedule = kind.String()
		}
	}
	return o, nil
}

// budget is the normalized solve budget as a duration.
func (o RequestOptions) budget() time.Duration {
	return time.Duration(o.BudgetMs) * time.Millisecond
}

// system builds the target hardware model.
func (o RequestOptions) system() sim.System {
	if o.Hosts > 1 {
		return sim.NewMultiHostSystem(o.Hosts, o.GPUs, o.GPUMemBytes)
	}
	return sim.NewSystem(o.GPUs, o.GPUMemBytes)
}

// placeOptions maps the normalized request onto the placement
// pipeline. Verification is always on: no plan enters the cache (or
// leaves the server) unchecked.
func (o RequestOptions) placeOptions(cfg Config) placement.Options {
	budget := o.budget()
	opts := placement.Options{
		ILPTimeLimit:    budget,
		StartStage:      placement.StageForDeadline(budget),
		Seed:            o.Seed,
		Parallel:        cfg.Parallel,
		ScheduleFromILP: o.ScheduleFromILP,
		Verify:          true,
	}
	if o.PipelineMicrobatches > 0 {
		kind, _ := pipeline.ParseSchedule(o.PipelineSchedule) // normalized already validated it
		opts.Pipeline = pipeline.Options{Microbatches: o.PipelineMicrobatches, Schedule: kind}
	}
	return opts
}

// cacheKeyVersion is folded into every cache key so the key changes
// whenever the response schema or the option serialization does.
const cacheKeyVersion = "pesto/service-key/v2\n"

// cacheKey derives the content address of a request: the graph's
// canonical fingerprint combined with every normalized option that can
// change the plan bytes. Verify and NoCache are deliberately excluded
// — neither changes the plan, so requests differing only in them share
// one cache entry.
func (o RequestOptions) cacheKey(fp [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(cacheKeyVersion))
	h.Write(fp[:])
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(o.GPUs))
	u64(uint64(o.Hosts))
	u64(uint64(o.GPUMemBytes))
	u64(uint64(o.BudgetMs))
	u64(uint64(o.Seed))
	b := uint64(0)
	if o.ScheduleFromILP {
		b = 1
	}
	u64(b)
	u64(uint64(o.PipelineMicrobatches))
	u64(uint64(len(o.PipelineSchedule)))
	h.Write([]byte(o.PipelineSchedule))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// PlaceResponse is the JSON body served for a placed graph. Every
// field is deterministic for a fixed cache key, so identical requests
// receive byte-identical bodies (the cache stores and replays the
// serialized form verbatim). Per-request facts — cache hit or miss,
// wall-clock solve time — travel in response headers instead.
type PlaceResponse struct {
	// Fingerprint is the hex graph fingerprint (content address of the
	// graph alone).
	Fingerprint string `json:"fingerprint"`
	// CacheKey is the hex content address of graph + options — the key
	// the plan cache stores this response under.
	CacheKey string `json:"cacheKey"`
	// Plan is the placement (and optional schedule).
	Plan sim.Plan `json:"plan"`
	// Stage names the degradation-ladder rung that produced the plan.
	Stage string `json:"stage"`
	// Degraded is true when a rung below the requested entry rung
	// served the plan.
	Degraded bool `json:"degraded"`
	// MakespanNs is the simulated per-step training time of the plan.
	MakespanNs int64 `json:"makespanNs"`
	// PredictedNs is the solver's own objective value, when one exists.
	PredictedNs int64 `json:"predictedNs,omitempty"`
	// Verified records that the plan passed the independent invariant
	// checker before entering the cache. Always true on success paths.
	Verified bool `json:"verified"`
	// Pipeline carries the microbatched pipeline provenance (stage
	// shape, schedule, bubble fraction, per-stage utilization and peak
	// memory) when the solve ran in the pipeline regime.
	Pipeline *pipeline.Info `json:"pipeline,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response. RequestID
// matches the X-Request-ID response header, so an error quoted by a
// client can be correlated with server logs and span dumps.
// RetryAfterSec mirrors the Retry-After header on 429/503 responses —
// parseable backoff seconds for clients (and the fleet router) that
// only look at bodies.
type ErrorResponse struct {
	Error         string `json:"error"`
	RequestID     string `json:"requestId,omitempty"`
	RetryAfterSec int64  `json:"retryAfterSec,omitempty"`
}

// requestFields are the members of a place request body; any other
// member is an error.
var requestFields = []string{"graph", "options"}

// DecodePlaceRequest reads and validates one request body of at most
// limit bytes carrying a graph of at most maxNodes operations; zero
// limits mean the daemon's defaults, 32 MiB and 50000. Malformed JSON, schema violations, invalid graphs,
// trailing data and oversized bodies are errors (wrapping ErrBadRequest
// or ErrTooLarge); no input makes it panic — the fuzz target's
// contract.
func DecodePlaceRequest(r io.Reader, limit int64, maxNodes int) (*PlaceRequest, error) {
	data, err := readBody(r, limit)
	if err != nil {
		return nil, err
	}
	req, err := decodePlaceRequest(data)
	if err != nil {
		return nil, fmt.Errorf("decode request: %v: %w", err, ErrBadRequest)
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("missing graph: %w", ErrBadRequest)
	}
	if req.Graph.NumNodes() == 0 {
		return nil, fmt.Errorf("empty graph: %w", ErrBadRequest)
	}
	if maxNodes <= 0 {
		maxNodes = maxGraphNodes
	}
	if req.Graph.NumNodes() > maxNodes {
		return nil, fmt.Errorf("graph has %d nodes, limit %d: %w", req.Graph.NumNodes(), maxNodes, ErrTooLarge)
	}
	return req, nil
}

// decodePlaceRequest walks the request envelope in one pass: the graph
// member is decoded where it stands by internal/graph, and only the
// small options member goes to encoding/json, the decoder it shares
// with DecodeDeltaRequest. A null body or graph member leaves Graph
// nil; a repeated member is decoded again, as encoding/json does.
func decodePlaceRequest(data []byte) (*PlaceRequest, error) {
	var req PlaceRequest
	lx := jsonlex.New(data)
	if !lx.Null() {
		err := lx.Object(func(key []byte) error {
			switch jsonlex.Field(key, requestFields) {
			case "graph":
				if lx.Null() {
					req.Graph = nil
					return nil
				}
				g, err := graph.DecodeJSON(lx)
				req.Graph = g
				return err
			case "options":
				raw, err := lx.Raw()
				if err != nil {
					return err
				}
				return jsonlex.DecodeStrict(raw, &req.Options)
			}
			return fmt.Errorf("unknown field %q", key)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := lx.End(); err != nil {
		return nil, err
	}
	return &req, nil
}

// readBody reads a request body of at most limit bytes (32 MiB when
// limit is not positive).
func readBody(r io.Reader, limit int64) ([]byte, error) {
	if limit <= 0 {
		limit = maxBodyBytes
	}
	data, err := io.ReadAll(&io.LimitedReader{R: r, N: limit + 1})
	if err != nil {
		return nil, fmt.Errorf("read body: %v: %w", err, ErrBadRequest)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body over %d bytes: %w", limit, ErrTooLarge)
	}
	return data, nil
}
