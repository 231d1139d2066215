package fault

import (
	"fmt"
	"strings"
	"time"
)

// This file extends the deterministic fault injector from the compute
// substrate (devices, links, memory) to the *service tier*: the pestod
// replicas a fleet router balances over. The same philosophy applies —
// a FleetSpec plus a clock position is a pure function of its inputs,
// so a chaos run is replayable from its spec alone, and concurrent
// callers (the router's prober, hedged requests, the chaos harness)
// can all consult one injector without synchronization.
//
// Specs share the compact ';'-separated clause form of ParseSpec:
//
//	rkill:ID@AT[,restart=DUR]     replica ID dies at elapsed time AT;
//	                              with restart, it returns DUR later
//	probehole:ID@AT,dur=DUR       health probes to ID black-hole during
//	                              [AT, AT+DUR) while traffic still flows
//
// Replica IDs are the router's backend IDs: any non-empty string free
// of the spec metacharacters (';', ',', '@', '=').

// ReplicaKill takes one replica down at elapsed time At. Restart == 0
// means it never returns; otherwise it is reachable again from
// At+Restart.
type ReplicaKill struct {
	Replica string
	At      time.Duration
	Restart time.Duration
}

// ProbeBlackhole drops health probes to a replica during [At, At+Dur)
// while leaving its traffic path intact — the probe/traffic divergence
// that makes failure *detection* itself a fault domain.
type ProbeBlackhole struct {
	Replica string
	At      time.Duration
	Dur     time.Duration
}

// FleetSpec is a complete service-tier fault schedule.
type FleetSpec struct {
	Kills      []ReplicaKill
	Blackholes []ProbeBlackhole
}

// ParseFleetSpec parses the compact textual form documented above. The
// empty string is the empty (fault-free) spec. It never panics;
// malformed input returns an error wrapping ErrBadSpec.
func ParseFleetSpec(s string) (FleetSpec, error) {
	var spec FleetSpec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(clause, "rkill:"):
			err = spec.parseKill(clause[len("rkill:"):])
		case strings.HasPrefix(clause, "probehole:"):
			err = spec.parseBlackhole(clause[len("probehole:"):])
		default:
			err = fmt.Errorf("unknown clause %q", clause)
		}
		if err != nil {
			return FleetSpec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return spec, nil
}

func (s *FleetSpec) parseKill(body string) error {
	head, rest, hasOpts := strings.Cut(body, ",")
	id, at, err := parseReplicaAt(head)
	if err != nil {
		return fmt.Errorf("rkill: %v", err)
	}
	k := ReplicaKill{Replica: id, At: at}
	if hasOpts {
		key, val, ok := strings.Cut(strings.TrimSpace(rest), "=")
		if !ok || key != "restart" {
			return fmt.Errorf("rkill: expected restart=DUR, got %q", rest)
		}
		d, err := parseNonNegDuration(val)
		if err != nil {
			return fmt.Errorf("rkill restart: %v", err)
		}
		if d == 0 {
			return fmt.Errorf("rkill restart: duration must be > 0")
		}
		k.Restart = d
	}
	s.Kills = append(s.Kills, k)
	return nil
}

func (s *FleetSpec) parseBlackhole(body string) error {
	head, rest, ok := strings.Cut(body, ",")
	if !ok {
		return fmt.Errorf("probehole: expected ID@AT,dur=DUR, got %q", body)
	}
	id, at, err := parseReplicaAt(head)
	if err != nil {
		return fmt.Errorf("probehole: %v", err)
	}
	key, val, ok2 := strings.Cut(strings.TrimSpace(rest), "=")
	if !ok2 || key != "dur" {
		return fmt.Errorf("probehole: expected dur=DUR, got %q", rest)
	}
	d, err := parseNonNegDuration(val)
	if err != nil {
		return fmt.Errorf("probehole dur: %v", err)
	}
	s.Blackholes = append(s.Blackholes, ProbeBlackhole{Replica: id, At: at, Dur: d})
	return nil
}

// parseReplicaAt splits the "ID@AT" head shared by every clause.
func parseReplicaAt(head string) (string, time.Duration, error) {
	id, atS, ok := strings.Cut(strings.TrimSpace(head), "@")
	if !ok {
		return "", 0, fmt.Errorf("expected ID@AT, got %q", head)
	}
	if id == "" || strings.ContainsAny(id, ";,@=") {
		return "", 0, fmt.Errorf("bad replica id %q", id)
	}
	at, err := parseNonNegDuration(atS)
	if err != nil {
		return "", 0, fmt.Errorf("at: %v", err)
	}
	return id, at, nil
}

// FleetInjector is the realization of a FleetSpec. Every method is a
// pure function of (spec, replica, elapsed) — no internal state, no
// shared random stream — so one instance serves the router's prober,
// live traffic and hedges concurrently, and a chaos run replays
// byte-identically from its spec.
type FleetInjector struct {
	spec FleetSpec
}

// NewFleet builds the injector for a spec.
func NewFleet(spec FleetSpec) *FleetInjector { return &FleetInjector{spec: spec} }

// Killed reports whether the replica is down at elapsed time t.
func (in *FleetInjector) Killed(replica string, t time.Duration) bool {
	for _, k := range in.spec.Kills {
		if k.Replica != replica || t < k.At {
			continue
		}
		if k.Restart == 0 || t < k.At+k.Restart {
			return true
		}
	}
	return false
}

// Blackholed reports whether health probes to the replica vanish at
// elapsed time t.
func (in *FleetInjector) Blackholed(replica string, t time.Duration) bool {
	for _, b := range in.spec.Blackholes {
		if b.Replica == replica && t >= b.At && t < b.At+b.Dur {
			return true
		}
	}
	return false
}
