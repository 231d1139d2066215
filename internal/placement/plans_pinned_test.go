package placement

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pesto/internal/gen"
	"pesto/internal/incr"
	"pesto/internal/models"
	"pesto/internal/obs"
	"pesto/internal/pipeline"
	"pesto/internal/sim"
)

// plansPinnedFile holds one line per placement case: the plan's digest,
// its simulated makespan, the search's simulation and refine-round
// counters and a digest of the other result fields. Like the
// simulator's run_pinned.txt it is a record of behaviour, not a golden
// to refresh: a faster search must reproduce it byte for byte,
// trajectory included. A deliberate change to the search replaces it
// with the listing this test prints on mismatch (or that scripts/pin.sh
// writes), and the diff is reviewed like code.
var plansPinnedFile = filepath.Join("testdata", "plans_pinned.txt")

// pinNeverBinds is a time budget no pinned case comes near, so every
// search ends by convergence or by its node cap, never by the clock.
const pinNeverBinds = 10 * time.Minute

// pinILPNodes caps the branch and bound of the exact-rung cases.
const pinILPNodes = 6

// TestPlansPinned replays the placement entry points over the gen
// families × 3 seeds at 16 and 48 ops and the five ladder_zoo model-zoo
// graphs: Place at StageRefine, at StageILP under a node cap (FIFO and
// with ILP schedules) and at StagePipelineDP and StageFallback (both
// with and without ILP schedules), PlaceMultiGPU on three GPUs, Replan
// off a failed GPU, ReplanArrival back onto it, the pipeline regime and
// PipelinePlan under GPipe and 1F1B at 4 microbatches on four GPUs, and
// a 40-step Incremental chain. Each line carries a digest of the result
// fields beside the plan. It runs every case at Parallel 1 and 8, which
// must agree. Under -short or the race detector it replays a subset and
// checks each line against the file by name. With PESTO_PIN_UPDATE set
// it writes the full listing instead (see scripts/pin.sh).
func TestPlansPinned(t *testing.T) {
	update := os.Getenv("PESTO_PIN_UPDATE") != ""
	partial := (testing.Short() || raceEnabled) && !update
	got := plansListing(t, 8, partial)
	if serial := plansListing(t, 1, partial); !bytes.Equal(serial, got) {
		t.Errorf("Parallel 1 and 8 disagree:\n%s", firstDiff(serial, got))
	}
	if update {
		writePins(t, plansPinnedFile, got)
		return
	}
	want, err := os.ReadFile(plansPinnedFile)
	if err != nil {
		t.Fatalf("%v\ncomputed listing:\n%s", err, got)
	}
	if !partial {
		if !bytes.Equal(got, want) {
			t.Fatalf("placement output changed: %s\ncomputed listing:\n%s", firstDiff(got, want), got)
		}
		return
	}
	byName := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 0 && f[0] != "#" {
			byName[f[0]] = sc.Text()
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(got)), "\n") {
		name := strings.Fields(line)[0]
		if name == "#" {
			continue
		}
		if w, ok := byName[name]; !ok || w != line {
			t.Errorf("case %s:\n got  %s\n want %s", name, line, w)
		}
	}
}

// writePins replaces a pin file with the computed listing. Only
// scripts/pin.sh sets PESTO_PIN_UPDATE, on an export of the commit the
// pins are taken from.
func writePins(t *testing.T, path string, listing []byte) {
	t.Helper()
	if err := os.WriteFile(path, listing, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("first difference at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(gl), len(wl))
}

// planDigest hashes the canonical form of a plan: policy, the device of
// every node and each device's explicit order.
func planDigest(p sim.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %d\ndevices", int(p.Policy))
	for _, d := range p.Device {
		fmt.Fprintf(&b, " %d", int(d))
	}
	b.WriteString("\n")
	if p.Order != nil {
		for d, ids := range p.Order {
			fmt.Fprintf(&b, "order %d", d)
			for _, id := range ids {
				fmt.Fprintf(&b, " %d", int(id))
			}
			b.WriteString("\n")
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// pinned is what one case contributes to its line: the plan, its
// makespan and the other result fields, rendered for digesting.
type pinned struct {
	plan   sim.Plan
	mk     time.Duration
	fields string
}

// pinRun runs one case under a fresh recorder and appends its line.
type pinRun struct {
	t   *testing.T
	buf *bytes.Buffer
}

func (r pinRun) run(name string, f func(ctx context.Context) (pinned, error)) sim.Plan {
	r.t.Helper()
	rec := obs.NewRecorder()
	p, err := f(obs.Into(context.Background(), rec))
	if err != nil {
		r.t.Fatalf("%s: %v", name, err)
	}
	sum := sha256.Sum256([]byte(p.fields))
	fmt.Fprintf(r.buf, "%s %s %d %d %d %s\n", name, planDigest(p.plan), int64(p.mk),
		rec.Counter("placement.sims"), rec.Counter("placement.refine.rounds"), hex.EncodeToString(sum[:8]))
	return p.plan
}

// placed pins a Result: besides plan and makespan, every field a
// placement path assembles itself — coarse size and plan, status,
// predicted makespan, coarsening effort and the provenance's stage,
// degradation flag and regime records.
func placed(res *Result, err error) (pinned, error) {
	if err != nil {
		return pinned{}, err
	}
	fields := fmt.Sprintf("coarse %d %d status %v predicted %d coarse-plan %s stage %v degraded %v",
		res.CoarseSize, res.CoarsenIterations, res.ILPStatus, int64(res.PredictedMakespan),
		planDigest(res.CoarsePlan), res.Provenance.Stage, res.Provenance.Degraded)
	if info := res.Provenance.Pipeline; info != nil {
		fields += fmt.Sprintf(" pipeline %+v", *info)
	}
	if info := res.Provenance.Incremental; info != nil {
		fields += fmt.Sprintf(" incremental %+v", *info)
	}
	return pinned{plan: res.Plan, mk: res.SimulatedMakespan, fields: fields}, nil
}

func replanned(res *ReplanResult, err error) (pinned, error) {
	if err != nil {
		return pinned{}, err
	}
	fields := fmt.Sprintf("makespan %d prev %d delta %d migrated %d stage %v degraded %v",
		int64(res.Makespan), int64(res.PrevMakespan), int64(res.RecoveryDelta), res.Migrated,
		res.Provenance.Stage, res.Provenance.Degraded)
	return pinned{plan: res.Plan, mk: res.Makespan, fields: fields}, nil
}

// pipelinePlanned pins PipelinePlan's artifact: the microbatched plan
// over the replicated graph, its simulated step and its stage layout.
func pipelinePlanned(sys sim.System, pp *pipeline.Plan, err error) (pinned, error) {
	if err != nil {
		return pinned{}, err
	}
	mk, err := sim.Makespan(pp.Graph, sys, pp.Sim)
	if err != nil {
		return pinned{}, err
	}
	fields := fmt.Sprintf("nodes %d schedule %v meta %+v", pp.Graph.NumNodes(), pp.Schedule, pp.Meta)
	for _, st := range pp.Partition.Stages {
		fields += fmt.Sprintf(" stage %d %v", st.Device, st.Nodes)
	}
	return pinned{plan: pp.Sim, mk: mk, fields: fields}, nil
}

func plansListing(t *testing.T, parallel int, partial bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := pinRun{t: t, buf: &buf}
	fmt.Fprintf(&buf, "# case plan-sha256[:16] makespan placement.sims placement.refine.rounds result-sha256[:8]\n")
	sys2 := sim.NewSystem(2, gpuMem)
	sys3 := sim.NewSystem(3, gpuMem)
	sys4 := sim.NewSystem(4, gpuMem)
	opts := func(seed int64) Options {
		return Options{ILPTimeLimit: pinNeverBinds, Seed: seed, Parallel: parallel}
	}
	sizes, seeds := []int{16, 48}, []int64{1, 2, 3}
	if partial {
		sizes, seeds = []int{16}, []int64{1}
	}
	for _, fam := range gen.Families() {
		for _, nodes := range sizes {
			for _, seed := range seeds {
				g, err := gen.Generate(gen.Config{Family: fam, Seed: seed, Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v/n%d/s%d", fam, nodes, seed)
				ctxOpts := opts(seed)
				refine := ctxOpts
				refine.StartStage = StageRefine
				r.run(name+"/refine", func(ctx context.Context) (pinned, error) {
					return placed(Place(ctx, g, sys2, refine))
				})
				exact := ctxOpts
				exact.ILPMaxNodes = pinILPNodes
				r.run(name+"/ilp", func(ctx context.Context) (pinned, error) {
					return placed(Place(ctx, g, sys2, exact))
				})
				exact.ScheduleFromILP = true
				r.run(name+"/ilp-sched", func(ctx context.Context) (pinned, error) {
					return placed(Place(ctx, g, sys2, exact))
				})
				for _, rung := range []struct {
					name  string
					stage Stage
				}{{"pipedp", StagePipelineDP}, {"fallback", StageFallback}} {
					low := ctxOpts
					low.StartStage = rung.stage
					r.run(name+"/"+rung.name, func(ctx context.Context) (pinned, error) {
						return placed(Place(ctx, g, sys2, low))
					})
					low.ScheduleFromILP = true
					r.run(name+"/"+rung.name+"-sched", func(ctx context.Context) (pinned, error) {
						return placed(Place(ctx, g, sys2, low))
					})
				}
				multi := r.run(name+"/multi3", func(ctx context.Context) (pinned, error) {
					return placed(PlaceMultiGPU(ctx, g, sys3, refine))
				})
				const lost = sim.DeviceID(3)
				survived := r.run(name+"/replan", func(ctx context.Context) (pinned, error) {
					return replanned(Replan(ctx, g, sys3, multi, lost, refine))
				})
				r.run(name+"/arrival", func(ctx context.Context) (pinned, error) {
					return replanned(ReplanArrival(ctx, g, sys3, survived, lost, refine))
				})
				for _, sched := range []pipeline.ScheduleKind{pipeline.ScheduleGPipe, pipeline.Schedule1F1B} {
					piped := ctxOpts
					piped.Pipeline = pipeline.Options{Microbatches: 4, Schedule: sched}
					r.run(fmt.Sprintf("%s/pipe4-%v", name, sched), func(ctx context.Context) (pinned, error) {
						return placed(PlaceMultiGPU(ctx, g, sys4, piped))
					})
					r.run(fmt.Sprintf("%s/pipeplan4-%v", name, sched), func(context.Context) (pinned, error) {
						pp, err := PipelinePlan(g, sys4, piped)
						return pipelinePlanned(sys4, pp, err)
					})
				}
			}
		}
	}
	pinIncrementalChain(t, r, opts(1), partial)
	if partial {
		return buf.Bytes()
	}
	for _, name := range []string{"RNNLM-2-2048", "NMT-2-1024", "Transformer-10-8-1024", "Transformer-6-16-2048", "NASNet-6-148"} {
		v, err := models.FindVariant(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		refine := opts(7)
		refine.StartStage = StageRefine
		r.run("zoo/"+name+"/refine", func(ctx context.Context) (pinned, error) {
			return placed(Place(ctx, g, sys2, refine))
		})
	}
	return buf.Bytes()
}

// pinIncrementalChain threads a 40-step edit trace through Incremental
// the way the edit_trace benchmark does, one line per step.
func pinIncrementalChain(t *testing.T, r pinRun, opts Options, partial bool) {
	t.Helper()
	steps := 40
	if partial {
		steps = 6
	}
	base, err := gen.Generate(gen.Config{Family: gen.Layered, Seed: 7, Nodes: 48})
	if err != nil {
		t.Fatal(err)
	}
	edits, err := gen.EditTrace(base, gen.EditTraceConfig{Seed: 3, Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.NewSystem(2, gpuMem)
	opts.StartStage = StageRefine
	cold := r.run("incr/cold", func(ctx context.Context) (pinned, error) {
		return placed(PlaceMultiGPU(ctx, base, sys, opts))
	})
	prior := PriorPlacement{Graph: base, Plan: cold}
	cur := base
	for i, e := range edits[:steps] {
		next, nodeMap, err := incr.Apply(cur, e)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		prior.NodeMap = nodeMap
		var info *IncrementalInfo
		plan := r.run(fmt.Sprintf("incr/step%02d", i), func(ctx context.Context) (pinned, error) {
			res, err := Incremental(ctx, next, sys, prior, opts)
			if err == nil {
				info = res.Provenance.Incremental
			}
			return placed(res, err)
		})
		prior = PriorPlacement{Graph: next, Plan: plan, ChainDepth: info.ChainDepth, AnchorQuality: info.AnchorQuality}
		cur = next
	}
}
