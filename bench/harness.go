package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Calibration constants. They live here and in workloads.go, never in
// an environment variable, so two runs of one commit do the same work.
const (
	// buildRepeats builds are made per run and setup_s takes their
	// median, so one slow build does not set the figure.
	buildRepeats = 3
	// warmupRounds unmeasured rounds follow the last build; both count
	// towards setup_s.
	warmupRounds = 2
	// minRounds keeps the per-class medians defined when --seconds is
	// tiny (tests); the driver's run length gives 9 or more.
	minRounds = 2
	// classSamples is the sample count a class median is trusted at;
	// fewer is flagged on standard error, not failed.
	classSamples = 9
	// tailSamples is the sample count from which a class also reports a
	// tail percentile.
	tailSamples = 100
)

// class is one (input, path) pair. Classes of a workload are visited
// round-robin so a noisy burst on the machine spreads over all of them
// rather than landing on whichever ran last.
type class struct {
	name string
	// limit is the fixed latency limit of the class, calibrated on the
	// 2-core reference VM and pinned beside the class. An op over it
	// misses within_limit_share.
	limit time.Duration
}

// sample is one attempted op.
type sample struct {
	class int
	dur   time.Duration
	// speed is the machine-speed factor of the block the op ran in; at()
	// is the duration at reference speed, which is what is reported.
	speed float64
	// err marks an op that failed, was refused, or returned bytes that
	// differ from the first answer for its key. Failed ops are counted,
	// never timed.
	err error
	// out is what the op returned, verified after the measured phase so
	// the oracle's own CPU stays out of the timings.
	out *output
	// timeBound marks an exact-rung op that stopped on ILPTimeLimit
	// rather than on proof or node cap: a wall-clock knob ended it, so it
	// counts as over its limit whatever its duration.
	timeBound bool
	// traced marks a sample of a traced round; end-to-end timings use
	// only the untraced ones.
	traced bool
	// meta carries what a workload wants back in layerMetrics.
	meta any
}

// at is the op's duration at reference machine speed.
func (s sample) at() time.Duration { return time.Duration(float64(s.dur) / s.speed) }

// instance is one set-up of a workload, ready to run rounds.
type instance interface {
	classes() []class
	// round runs every op of one round, in blocks under the meter, and
	// returns one sample per op attempted. ctx carries the tracer's
	// recorder on traced rounds.
	round(ctx context.Context, order *rand.Rand, m *meter) []sample
	// layerMetrics derives the workload's own per-layer figures from the
	// samples of the traced rounds.
	layerMetrics(traced []sample) map[string]float64
	// references lists the reference makespan of every input by key, for
	// -write-reference and the drift check.
	references() map[string]int64
	close()
}

// workload builds instances from a seed.
type workload struct {
	name string
	// build generates the corpus from the seed, starts whatever serves it
	// and computes the references.
	build func(seed int64, scale scale) (instance, error)
}

// scale shrinks a workload for tests; the zero value is full size.
type scale struct {
	short   bool
	clients int // serve_zipf client goroutines; zero means 2
}

// endToEnd holds the six gated metrics of one workload run, by name.
type endToEnd map[string]float64

// endToEndUnits lists the end-to-end metrics, in print order, with
// their units.
var endToEndUnits = [][2]string{
	{"setup_s", "s"}, {"op_geo_ms", "ms"}, {"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"}, {"quality_ratio", "ratio"}, {"within_limit_share", "share"},
}

// classStat is the printed, ungated detail behind op_geo_ms.
type classStat struct {
	Name     string  `json:"name"`
	Samples  int     `json:"samples"`
	MedianMs float64 `json:"median_ms"`
	// RawMedianMs is the median as the clock read it, before the
	// machine-speed factor.
	RawMedianMs float64 `json:"raw_median_ms"`
	// TailMs is the highest percentile with ten samples beyond it, when
	// the class has tailSamples or more; TailPct names it.
	TailMs  float64 `json:"tail_ms,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	LimitMs float64 `json:"limit_ms"`
	Failed  int     `json:"failed"`
	Over    int     `json:"over_limit"`
}

// runResult is everything one workload run produced.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Rounds    int     `json:"rounds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	MeasuredS float64 `json:"measured_s"`
	// MachineSpeed is the median speed factor over the run's blocks
	// (kernel time / kernelRef); RawCPUMsPerOp is cpu_ms_per_op before it.
	MachineSpeed  float64            `json:"machine_speed"`
	RawCPUMsPerOp float64            `json:"raw_cpu_ms_per_op"`
	EndToEnd      endToEnd           `json:"end_to_end"`
	Classes       []classStat        `json:"classes"`
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
}

// runConfig says how long and how to measure.
type runConfig struct {
	seed    int64
	seconds float64
	// rounds pins the measured round count; zero measures for seconds.
	// Tests and -aa pin it so the deterministic outputs repeat exactly.
	rounds int
	traced bool
	scale  scale
	// traceDir receives trace.<workload>.json on traced runs; empty
	// keeps the spans in memory only.
	traceDir string
}

// kernelRef is what the speed kernel takes on the reference VM (2 cores,
// 2.1 GHz) when its neighbours are quiet. Timings are reported at that
// speed.
const kernelRef = 2500 * time.Microsecond

// meter measures how fast the machine is right now and charges measured
// work at that speed.
//
// It exists because this benchmark's home is a small VM whose
// neighbours share its cores: for tens of seconds at a time every
// memory-touching instruction stream — the program's and this kernel's
// alike — runs 30-50 % slower (a register-only loop does not; it is the
// hyperthread sibling). Same-code runs minutes apart then disagree by
// 25 % on any raw timing, which no bound survives. A 2.5 ms scattered
// read-modify-write over 4 MB, timed before and after each block of
// work, tracks that state: dividing each block's times by kernel time /
// kernelRef brought the spread of ten same-code runs from 19-32 % to
// 2-4 % in a busy hour (in a quiet one it is 2-7 % either way), and the
// spread of 20 s medians over two 20-minute recordings of all four kinds
// of op from 8-16 % to 3-5 %. A streaming pass, a cache-resident dot
// product and a pointer chase tracked worse; the same kernel with the
// table left warm, or run on every core at once, no better. The kernel
// is harness code over harness memory: a faster program still shows in
// full. Raw figures are printed beside the normalised ones.
type meter struct {
	idx   []int32
	tbl   []float64
	evict []float64

	// last is the latest speed measurement and lastAt when it ended.
	last   float64
	lastAt time.Time

	// Totals over the blocks since the last reset: at reference speed,
	// and as the clocks read them.
	cpu, wall       time.Duration
	cpuRaw, wallRaw time.Duration
	speeds          []float64
}

func newMeter() *meter {
	m := &meter{idx: make([]int32, 1<<18), tbl: make([]float64, 1<<19), evict: make([]float64, 1<<20)}
	for i := range m.idx {
		m.idx[i] = int32((i * 7919) & (len(m.tbl) - 1))
	}
	return m
}

// measure runs the kernel once and returns its time over kernelRef:
// above 1 the machine is slower than the reference right now.
func (m *meter) measure() float64 {
	// Start from the same private-cache state whatever ran before: stream
	// 8 MB through them, so the table is never there.
	for i := range m.evict {
		m.evict[i]++
	}
	start := time.Now()
	for pass := 0; pass < 2; pass++ {
		for _, j := range m.idx {
			m.tbl[j] += 1.5
		}
	}
	m.last, m.lastAt = float64(time.Since(start))/float64(kernelRef), time.Now()
	return m.last
}

// block runs work between two speed measurements and returns the block's
// speed factor, their mean; the wall and CPU time work took, divided by
// it, go to the totals. The measurement that closed the previous block
// opens this one when no time has passed since. A block should be short
// against the tens of seconds the machine's state lasts: one op, or a
// few hundred milliseconds of small ones.
func (m *meter) block(work func()) float64 {
	before := m.last
	if time.Since(m.lastAt) > time.Millisecond {
		before = m.measure()
	}
	cpu0, start := processCPU(), time.Now()
	work()
	cpu, wall := processCPU()-cpu0, time.Since(start)
	speed := (before + m.measure()) / 2
	m.cpuRaw += cpu
	m.wallRaw += wall
	m.cpu += time.Duration(float64(cpu) / speed)
	m.wall += time.Duration(float64(wall) / speed)
	m.speeds = append(m.speeds, speed)
	return speed
}

func (m *meter) reset() {
	m.cpu, m.wall, m.cpuRaw, m.wallRaw, m.speeds = 0, 0, 0, 0, m.speeds[:0]
}

// setUp builds the workload buildRepeats times, keeps the last
// instance, and runs warmupRounds unmeasured rounds on it, which grow the
// heap and fault in the pages the measured rounds reuse. setup_s is the
// median build plus those rounds: a round is as long as a measured one,
// so the warm-up is done once, not per build.
func setUp(w workload, cfg runConfig, m *meter) (instance, float64, error) {
	var inst instance
	var err error
	builds := make([]float64, 0, buildRepeats)
	for i := 0; i < buildRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		// A build leaves garbage the next would otherwise pay to collect;
		// start each from the same heap.
		runtime.GC()
		m.reset()
		m.block(func() { inst, err = w.build(cfg.seed, cfg.scale) })
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		builds = append(builds, m.wall.Seconds())
	}
	m.reset()
	classes := inst.classes()
	order := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < warmupRounds; i++ {
		for _, s := range inst.round(context.Background(), order, m) {
			if s.err != nil {
				inst.close()
				return nil, 0, fmt.Errorf("%s: warm-up: %s: %w", w.name, classes[s.class].name, s.err)
			}
		}
	}
	return inst, median(builds) + m.wall.Seconds(), nil
}

// runWorkload is the whole life of one run: set-up, measured rounds,
// then the oracle over every output.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	m := newMeter()
	inst, setupS, err := setUp(w, cfg, m)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	res := &runResult{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	// The visiting order is the only thing the seed decides inside a
	// round; every workload derives its inputs from the seed in build.
	order := rand.New(rand.NewSource(cfg.seed ^ 0x6f72646572))
	var all []sample
	var tracedWall time.Duration
	// CPU per op of each untraced round, at reference speed and raw.
	var roundCPU, roundCPURaw []float64

	runtime.GC()
	m.reset()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for {
		// Traced runs alternate untraced and traced rounds, so the
		// tracing overhead is a difference within one run rather than
		// between two runs minutes apart.
		if cfg.traced && res.Rounds%2 == 1 {
			before := m.wallRaw
			round := inst.round(tr.context(context.Background()), order, m)
			tracedWall += m.wallRaw - before
			for i := range round {
				round[i].traced = true
			}
			all = append(all, round...)
		} else {
			cpu, cpuRaw := m.cpu, m.cpuRaw
			round := inst.round(context.Background(), order, m)
			roundCPU = append(roundCPU, ms(m.cpu-cpu)/float64(len(round)))
			roundCPURaw = append(roundCPURaw, ms(m.cpuRaw-cpuRaw)/float64(len(round)))
			all = append(all, round...)
		}
		res.Rounds++
		if cfg.rounds > 0 {
			if res.Rounds >= cfg.rounds {
				break
			}
			continue
		}
		elapsed := time.Since(start).Seconds()
		if res.Rounds >= minRounds && elapsed+elapsed/float64(res.Rounds)/2 >= cfg.seconds {
			break
		}
	}
	res.MeasuredS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	classes := inst.classes()
	var oracleT *oracleTimes
	if cfg.traced {
		oracleT = &oracleTimes{}
	}
	judged := judge(classes, all, oracleT)
	ops := float64(len(all))
	res.Attempted, res.Failed = len(all), judged.failed
	res.Failures = judged.failures
	res.Classes = classStats(classes, all, judged.over, false)
	res.EndToEnd = endToEnd{
		"setup_s":            setupS,
		"op_geo_ms":          opGeoMs(res.Classes),
		"cpu_ms_per_op":      median(roundCPU),
		"alloc_mb_per_op":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops,
		"quality_ratio":      judged.quality,
		"within_limit_share": float64(judged.within) / ops,
	}
	res.MachineSpeed = median(m.speeds)
	res.RawCPUMsPerOp = median(roundCPURaw)

	if cfg.traced {
		tracedGeo := opGeoMs(classStats(classes, all, judged.over, true))
		res.PerLayer = perLayerMetrics(tr, inst, all, tracedWall)
		res.PerLayer["obs.traced_overhead_share"] = tracedGeo/res.EndToEnd["op_geo_ms"] - 1
		if oracleT.n > 0 {
			res.PerLayer["sim.run_us"] = float64(oracleT.sim.Microseconds()) / float64(oracleT.n)
			res.PerLayer["verify.check_us"] = float64(oracleT.check.Microseconds()) / float64(oracleT.n)
		}
		if cfg.traceDir != "" {
			if err := tr.writeFile(cfg.traceDir, w.name, cfg.seed); err != nil {
				return nil, err
			}
		}
	}
	for _, c := range res.Classes {
		if c.Samples < classSamples && !cfg.scale.short {
			fmt.Fprintf(stderr, "bench: %s class %s has %d samples, fewer than %d\n", w.name, c.Name, c.Samples, classSamples)
		}
	}
	return res, nil
}

// processCPU is the user+system CPU time this process has used: the
// capacity an op costs, whichever core ran it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// classStats reduces the samples of each class, traced or untraced, to
// its median and, with enough samples, its tail.
func classStats(classes []class, samples []sample, over []bool, traced bool) []classStat {
	durs := make([][]float64, len(classes))
	raw := make([][]float64, len(classes))
	stats := make([]classStat, len(classes))
	for i, c := range classes {
		stats[i] = classStat{Name: c.name, LimitMs: ms(c.limit)}
	}
	for i, s := range samples {
		if s.traced != traced {
			continue
		}
		if s.err != nil {
			stats[s.class].Failed++
			continue
		}
		if over[i] {
			stats[s.class].Over++
		}
		durs[s.class] = append(durs[s.class], ms(s.at()))
		raw[s.class] = append(raw[s.class], ms(s.dur))
	}
	for i, d := range durs {
		sort.Float64s(d)
		stats[i].Samples = len(d)
		if len(d) == 0 {
			continue
		}
		stats[i].MedianMs = median(d)
		stats[i].RawMedianMs = median(raw[i])
		if len(d) >= tailSamples {
			// The highest percentile that still has ten samples beyond it.
			k := len(d) - 11
			stats[i].TailMs = d[k]
			stats[i].TailPct = 100 * float64(k+1) / float64(len(d))
		}
	}
	return stats
}

// opGeoMs is the geometric mean of the class medians: a gain on any
// input shows, and no input dominates.
func opGeoMs(stats []classStat) float64 {
	var logs float64
	n := 0
	for _, s := range stats {
		if s.Samples > 0 {
			logs += math.Log(s.MedianMs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of values; it sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
