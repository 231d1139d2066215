// Package fault is a deterministic, seeded fault injector for the
// Pesto substrates. It models the failure modes a production placement
// service must survive — the run-to-run compute variance the paper
// measures in Figure 4a taken to its heavy tail, degraded or stalling
// interconnects, GPUs whose effective memory shrinks mid-step (other
// tenants, fragmentation), and whole-device failure — and plugs into
// both the discrete-event simulator (sim.RunInjected) and the
// concurrent runtime executor (runtime.Options.Injector) through the
// sim.Injector hook interface.
//
// Everything is a pure function of the spec and its seed: the same
// spec produces byte-identical injected event traces across repeated
// runs, across engines and across worker counts. Per-operation
// randomness is derived by hashing (seed, node ID), never by drawing
// from a shared stream, so concurrency cannot reorder it.
//
// Specs have a compact textual form for the -fault-spec CLI flag:
//
//	seed=42;straggler:p=0.05,mult=8;link:1-2,scale=4,stall=100us@1ms;mem:2,frac=0.5@2ms;fail:2@5ms
//
// Clauses are ';'-separated:
//
//	seed=N                                 seed for straggler sampling
//	straggler:p=P,mult=M[,tail=A]          each op straggles with prob P;
//	                                       straggling ops run ≥M× slower,
//	                                       Pareto(A)-tailed beyond
//	link:F-T,scale=S[,stall=DUR@AT]        transfers F→T take S× longer;
//	                                       the link freezes for DUR at AT
//	link:*,...                             every link
//	mem:D,frac=F@AT                        device D's effective memory
//	                                       drops to F×capacity at AT
//	fail:D@AT                              device D dies at virtual time AT
//
// ParseSpec never panics on any input (fuzzed); malformed specs return
// descriptive errors.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"pesto/internal/graph"
	"pesto/internal/sim"
)

// ErrBadSpec marks malformed fault-spec strings; every ParseSpec error
// wraps it.
var ErrBadSpec = errors.New("invalid fault spec")

// Straggler makes each operation straggle independently with
// probability P. Straggling operations run at least Mult× slower, with
// a Pareto(Tail) distributed factor beyond that (heavy-tailed: small
// Tail means wilder outliers).
type Straggler struct {
	P    float64
	Mult float64
	Tail float64
}

// LinkFault degrades one directional link (or, with Wildcard, all of
// them): Scale multiplies every transfer's service time, and a
// transfer whose link service would begin inside the window
// [StallAt, StallAt+StallDur) is additionally held until the window
// ends — a transient stall.
type LinkFault struct {
	From, To sim.DeviceID
	Wildcard bool
	Scale    float64
	StallAt  time.Duration
	StallDur time.Duration
}

// MemFault shrinks a device's effective memory capacity to Frac of its
// configured capacity from virtual time At onward.
type MemFault struct {
	Dev  sim.DeviceID
	Frac float64
	At   time.Duration
}

// DeviceFailure kills a device at virtual time At: any operation that
// would start on it — or still be running on it — at or after At
// aborts the run with sim.ErrDeviceFailed.
type DeviceFailure struct {
	Dev sim.DeviceID
	At  time.Duration
}

// Spec is a complete fault schedule.
type Spec struct {
	Seed      int64
	Straggler *Straggler
	Links     []LinkFault
	Mem       []MemFault
	Fail      []DeviceFailure
}

// ParseSpec parses the compact textual spec format documented in the
// package comment. The empty string is the empty (fault-free) spec. It
// never panics; malformed input returns an error wrapping ErrBadSpec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(clause, "seed="):
			spec.Seed, err = strconv.ParseInt(clause[len("seed="):], 10, 64)
			if err != nil {
				err = fmt.Errorf("seed: %v", err)
			}
		case strings.HasPrefix(clause, "straggler:"):
			err = spec.parseStraggler(clause[len("straggler:"):])
		case strings.HasPrefix(clause, "link:"):
			err = spec.parseLink(clause[len("link:"):])
		case strings.HasPrefix(clause, "mem:"):
			err = spec.parseMem(clause[len("mem:"):])
		case strings.HasPrefix(clause, "fail:"):
			err = spec.parseFail(clause[len("fail:"):])
		default:
			err = fmt.Errorf("unknown clause %q", clause)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return spec, nil
}

func (s *Spec) parseStraggler(body string) error {
	st := Straggler{P: 0.05, Mult: 4, Tail: 1.5}
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("straggler: expected key=value, got %q", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("straggler %s: %v", k, err)
		}
		switch k {
		case "p":
			st.P = f
		case "mult":
			st.Mult = f
		case "tail":
			st.Tail = f
		default:
			return fmt.Errorf("straggler: unknown key %q", k)
		}
	}
	if st.P < 0 || st.P > 1 || math.IsNaN(st.P) {
		return fmt.Errorf("straggler: p=%v outside [0,1]", st.P)
	}
	if st.Mult < 1 || math.IsNaN(st.Mult) || math.IsInf(st.Mult, 0) {
		return fmt.Errorf("straggler: mult=%v must be >= 1", st.Mult)
	}
	if st.Tail <= 0 || math.IsNaN(st.Tail) || math.IsInf(st.Tail, 0) {
		return fmt.Errorf("straggler: tail=%v must be > 0", st.Tail)
	}
	s.Straggler = &st
	return nil
}

func (s *Spec) parseLink(body string) error {
	parts := strings.Split(body, ",")
	lf := LinkFault{Scale: 1}
	spec := strings.TrimSpace(parts[0])
	if spec == "*" {
		lf.Wildcard = true
	} else {
		fromS, toS, ok := strings.Cut(spec, "-")
		if !ok {
			return fmt.Errorf("link: expected FROM-TO or *, got %q", spec)
		}
		from, err1 := parseDev(fromS)
		to, err2 := parseDev(toS)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("link: bad endpoint in %q", spec)
		}
		lf.From, lf.To = from, to
	}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("link: expected key=value, got %q", kv)
		}
		switch k {
		case "scale":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("link scale: %v", err)
			}
			if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("link scale: %v must be > 0", f)
			}
			lf.Scale = f
		case "stall":
			durS, atS, ok := strings.Cut(v, "@")
			if !ok {
				return fmt.Errorf("link stall: expected DUR@AT, got %q", v)
			}
			dur, err1 := parseNonNegDuration(durS)
			at, err2 := parseNonNegDuration(atS)
			if err1 != nil {
				return fmt.Errorf("link stall: %v", err1)
			}
			if err2 != nil {
				return fmt.Errorf("link stall: %v", err2)
			}
			lf.StallDur, lf.StallAt = dur, at
		default:
			return fmt.Errorf("link: unknown key %q", k)
		}
	}
	s.Links = append(s.Links, lf)
	return nil
}

func (s *Spec) parseMem(body string) error {
	devS, rest, ok := strings.Cut(body, ",")
	if !ok {
		return fmt.Errorf("mem: expected DEV,frac=F@AT, got %q", body)
	}
	dev, err := parseDev(devS)
	if err != nil {
		return fmt.Errorf("mem: %v", err)
	}
	k, v, ok := strings.Cut(strings.TrimSpace(rest), "=")
	if !ok || k != "frac" {
		return fmt.Errorf("mem: expected frac=F@AT, got %q", rest)
	}
	fracS, atS, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("mem: expected frac=F@AT, got %q", rest)
	}
	frac, err := strconv.ParseFloat(fracS, 64)
	if err != nil {
		return fmt.Errorf("mem frac: %v", err)
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return fmt.Errorf("mem frac: %v outside [0,1]", frac)
	}
	at, err := parseNonNegDuration(atS)
	if err != nil {
		return fmt.Errorf("mem at: %v", err)
	}
	s.Mem = append(s.Mem, MemFault{Dev: dev, Frac: frac, At: at})
	return nil
}

func (s *Spec) parseFail(body string) error {
	devS, atS, ok := strings.Cut(body, "@")
	if !ok {
		return fmt.Errorf("fail: expected DEV@AT, got %q", body)
	}
	dev, err := parseDev(devS)
	if err != nil {
		return fmt.Errorf("fail: %v", err)
	}
	at, err := parseNonNegDuration(atS)
	if err != nil {
		return fmt.Errorf("fail at: %v", err)
	}
	s.Fail = append(s.Fail, DeviceFailure{Dev: dev, At: at})
	return nil
}

func parseDev(s string) (sim.DeviceID, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("device %q: %v", s, err)
	}
	if n < 0 || n > 1<<20 {
		return 0, fmt.Errorf("device %d out of range", n)
	}
	return sim.DeviceID(n), nil
}

func parseNonNegDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %v must be >= 0", d)
	}
	return d, nil
}

// Injector is the seeded realization of a Spec. It implements
// sim.Injector with pure, hash-derived per-call values: no method
// mutates the injector, so one instance may serve concurrent
// simulations and the multi-goroutine runtime executor alike.
type Injector struct {
	spec Spec
	// failAt is the earliest configured failure per device.
	failAt map[sim.DeviceID]time.Duration
}

var _ sim.Injector = (*Injector)(nil)

// New builds the injector for a spec.
func New(spec Spec) *Injector {
	in := &Injector{spec: spec, failAt: make(map[sim.DeviceID]time.Duration, len(spec.Fail))}
	for _, f := range spec.Fail {
		if at, ok := in.failAt[f.Dev]; !ok || f.At < at {
			in.failAt[f.Dev] = f.At
		}
	}
	return in
}

// splitmix64 is the SplitMix64 finalizer — a cheap, high-quality bit
// mixer used to derive independent per-entity randomness from
// (seed, entity) pairs without any shared stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to a uniform float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// OpDuration implements sim.Injector: straggler sampling keyed by
// (seed, node) only, so every engine and every worker count sees the
// same multiplier for the same operation.
func (in *Injector) OpDuration(id graph.NodeID, _ sim.DeviceID, _, base time.Duration) time.Duration {
	st := in.spec.Straggler
	if st == nil || st.P <= 0 || base <= 0 {
		return base
	}
	h := splitmix64(uint64(in.spec.Seed) ^ splitmix64(uint64(id)+0x5741))
	if unit(h) >= st.P {
		return base
	}
	// Pareto(Tail) tail beyond the base multiplier, capped so a single
	// straggler cannot overflow the virtual clock.
	u := unit(splitmix64(h + 0x9E37))
	factor := st.Mult * math.Pow(1-u, -1/st.Tail)
	if factor > 1e4 {
		factor = 1e4
	}
	return time.Duration(float64(base) * factor)
}

// TransferDuration implements sim.Injector: matching link faults scale
// the service time, and a service start inside a stall window is held
// until the window ends.
func (in *Injector) TransferDuration(from, to sim.DeviceID, _ int64, start, base time.Duration) time.Duration {
	d := base
	for _, lf := range in.spec.Links {
		if !lf.Wildcard && (lf.From != from || lf.To != to) {
			continue
		}
		if lf.Scale > 0 && lf.Scale != 1 {
			d = time.Duration(float64(d) * lf.Scale)
		}
		if lf.StallDur > 0 && start >= lf.StallAt && start < lf.StallAt+lf.StallDur {
			d += lf.StallAt + lf.StallDur - start
		}
	}
	return d
}

// DeviceCapacity implements sim.Injector: the effective capacity is
// the configured capacity scaled by the smallest Frac of every mem
// fault already in effect at the given virtual time.
func (in *Injector) DeviceCapacity(dev sim.DeviceID, at time.Duration, base int64) int64 {
	c := base
	for _, mf := range in.spec.Mem {
		if mf.Dev != dev || at < mf.At {
			continue
		}
		if shrunk := int64(float64(base) * mf.Frac); shrunk < c {
			c = shrunk
		}
	}
	return c
}

// FailureTime implements sim.Injector.
func (in *Injector) FailureTime(dev sim.DeviceID) (time.Duration, bool) {
	at, ok := in.failAt[dev]
	return at, ok
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// Schedule renders the configured fault schedule as a canonical
// multi-line string — the injector half of the byte-comparable event
// trace (the execution half is the executed step's timeline). Identical
// specs produce identical schedules.
func (in *Injector) Schedule() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", in.spec.Seed)
	if st := in.spec.Straggler; st != nil {
		fmt.Fprintf(&b, "straggler p=%.4f mult=%.2f tail=%.2f\n", st.P, st.Mult, st.Tail)
	}
	for _, lf := range in.spec.Links {
		link := "*"
		if !lf.Wildcard {
			link = fmt.Sprintf("%d->%d", lf.From, lf.To)
		}
		fmt.Fprintf(&b, "link %s scale=%.2f", link, lf.Scale)
		if lf.StallDur > 0 {
			fmt.Fprintf(&b, " stall=%v@%v", lf.StallDur, lf.StallAt)
		}
		b.WriteByte('\n')
	}
	for _, mf := range in.spec.Mem {
		fmt.Fprintf(&b, "mem dev%d frac=%.2f @%v\n", mf.Dev, mf.Frac, mf.At)
	}
	fails := make([]DeviceFailure, len(in.spec.Fail))
	copy(fails, in.spec.Fail)
	sort.Slice(fails, func(i, j int) bool {
		if fails[i].At != fails[j].At {
			return fails[i].At < fails[j].At
		}
		return fails[i].Dev < fails[j].Dev
	})
	for _, f := range fails {
		fmt.Fprintf(&b, "fail dev%d @%v\n", f.Dev, f.At)
	}
	return b.String()
}
