GO ?= go

# Size of the differential-verification sweep (seeded random DAG
# instances driven through every engine and held to the invariant
# checker + LP lower bound). Plain `go test` uses a small default;
# `make verify` runs the full population.
SWEEP ?= 1000

.PHONY: build test check bench bench-ab fmt vet verify smoke obs-smoke fleet-smoke trace-smoke chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full gate: gofmt, vet, build, and the unit tests under the race
# detector (the placement engine is concurrent; races are correctness
# bugs here, not style).
check:
	sh scripts/check.sh

# One run of the repository benchmark (bench/), every workload, with the
# fixed seed the A/B pairs use.
bench:
	$(GO) run ./bench -seed 7

# A/B the repository benchmark (bench/): the working tree against BASE
# in N alternating pairs of 22-second runs of workload W, printing each
# pair's end-to-end metrics, then medians, quartiles and win counts.
# Example: make bench-ab W=ladder_zoo N=10 BASE=HEAD SEED=7
N ?= 10
BASE ?= HEAD
SEED ?= 7
bench-ab:
	bash scripts/bench_ab.sh $(W) $(N) $(BASE) $(SEED)

# Length of the incremental edit-trace sweep (one seeded trace replayed
# through placement.Incremental with per-step invariant, quality and
# byte-determinism oracles). Plain `go test` uses a short default;
# `make verify` replays the full trace.
INCR_STEPS ?= 500

# The differential verification sweep: $(SWEEP) seeded instances across
# baselines, the placement ladder, replanning, both execution engines
# and the k-GPU/multi-host variants, each held to the independent
# invariant checker and the LP-relaxation lower bound, plus the
# $(INCR_STEPS)-step incremental edit-trace sweep.
verify:
	PESTO_SWEEP=$(SWEEP) PESTO_INCR_STEPS=$(INCR_STEPS) $(GO) test ./internal/verify/ ./internal/gen/ -count=1 -timeout 60m -run 'TestSweep|TestGenerate' -v

# End-to-end smoke test of the pestod daemon: build, serve, solve,
# cache-hit byte-identity, /metrics scrape, SIGTERM drain.
smoke:
	bash scripts/smoke_pestod.sh

# End-to-end smoke test of the telemetry surfaces: X-Request-ID through
# header, span dump, JSONL log and metrics; pprof; and the pesto CLI's
# combined solver+execution Chrome trace.
obs-smoke:
	bash scripts/smoke_obs.sh

# End-to-end smoke test of fleet mode: a 3-replica in-process fleet
# (route/hit/batch-dedupe/metrics/drain) plus an HTTP-backend router
# that survives a replica kill.
fleet-smoke:
	bash scripts/smoke_fleet.sh

# End-to-end smoke test of fleet-wide tracing: a 3-replica HTTP fleet,
# a solve under a client trace ID, the stitched cross-replica Chrome
# trace at GET /v1/requests/{id}/trace, then a replica kill whose
# failover must show up as a failed hop in the next request's trace.
trace-smoke:
	bash scripts/smoke_trace.sh

# The fleet chaos sweep: $(CHAOS) Zipf requests through a 3-replica
# fleet while the fixed fault schedule kills, restarts and blinds
# replicas. Asserts zero failed requests, oracle byte-identity and
# hit-rate recovery; the test logs the spec/seed needed to replay a
# failure.
CHAOS ?= 10000
chaos:
	PESTO_CHAOS_REQUESTS=$(CHAOS) $(GO) test ./internal/fleet/ \
		-run TestFleetChaosDeterministicZeroFailures -count=1 -v -timeout 20m

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
