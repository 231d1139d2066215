package fault

import (
	"errors"
	"testing"
	"time"
)

func TestParseFleetSpec(t *testing.T) {
	spec, err := ParseFleetSpec("rkill:r1@2s,restart=1s; probehole:r0@500ms,dur=250ms; rkill:r2@10s")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Kills) != 2 || len(spec.Blackholes) != 1 {
		t.Fatalf("parsed %+v", spec)
	}
	k := spec.Kills[0]
	if k.Replica != "r1" || k.At != 2*time.Second || k.Restart != time.Second {
		t.Fatalf("kill %+v", k)
	}
	if spec.Kills[1].Restart != 0 {
		t.Fatalf("permanent kill got restart %v", spec.Kills[1].Restart)
	}
	b := spec.Blackholes[0]
	if b.Replica != "r0" || b.At != 500*time.Millisecond || b.Dur != 250*time.Millisecond {
		t.Fatalf("blackhole %+v", b)
	}
}

func TestParseFleetSpecEmpty(t *testing.T) {
	spec, err := ParseFleetSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Kills)+len(spec.Blackholes) != 0 {
		t.Fatalf("empty spec parsed to %+v", spec)
	}
}

func TestParseFleetSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus:r0@1s",
		"rkill:r0",                     // missing @AT
		"rkill:@1s",                    // empty id
		"rkill:r0@-1s",                 // negative time
		"rkill:r0@1s,restart=0s",       // zero restart
		"rkill:r0@1s,cooldown=1s",      // unknown option
		"probehole:r0@1s",              // missing dur
		"probehole:r0@1s,len=1s",       // unknown key
		"rlat:r0@1s,dur=1s,add=20ms",   // latency spikes are not a clause
		"rlat:r0@1s,dur=1s,add=0s",     // nor with zero add
		"rlat:r0@1s,dur=1s,add=1s,x=1", // nor with trailing garbage
		"rkill:a=b@1s",                 // metacharacter in id
	} {
		if _, err := ParseFleetSpec(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseFleetSpec(%q) err = %v, want ErrBadSpec", bad, err)
		}
	}
}

func TestFleetInjectorWindows(t *testing.T) {
	spec, err := ParseFleetSpec("rkill:r1@2s,restart=1s;rkill:r2@5s;probehole:r0@1s,dur=500ms")
	if err != nil {
		t.Fatal(err)
	}
	in := NewFleet(spec)

	// Kill with restart: down exactly during [2s, 3s).
	for _, tc := range []struct {
		at   time.Duration
		down bool
	}{
		{0, false}, {1999 * time.Millisecond, false},
		{2 * time.Second, true}, {2999 * time.Millisecond, true},
		{3 * time.Second, false}, {time.Hour, false},
	} {
		if got := in.Killed("r1", tc.at); got != tc.down {
			t.Errorf("Killed(r1, %v) = %v, want %v", tc.at, got, tc.down)
		}
	}
	// Permanent kill: down forever after At.
	if in.Killed("r2", 4*time.Second) || !in.Killed("r2", 5*time.Second) || !in.Killed("r2", time.Hour) {
		t.Error("permanent kill window wrong")
	}
	// Unknown replica: never killed.
	if in.Killed("r9", time.Hour) {
		t.Error("unconfigured replica reported killed")
	}
	// Blackhole window [1s, 1.5s).
	if in.Blackholed("r0", 999*time.Millisecond) || !in.Blackholed("r0", time.Second) || in.Blackholed("r0", 1500*time.Millisecond) {
		t.Error("blackhole window wrong")
	}
}

// TestFleetInjectorPure holds the replayability contract: repeated
// queries at the same elapsed time return identical answers (no hidden
// state, no stream consumption).
func TestFleetInjectorPure(t *testing.T) {
	spec, err := ParseFleetSpec("rkill:r1@1s,restart=2s;probehole:r1@500ms,dur=4s")
	if err != nil {
		t.Fatal(err)
	}
	in := NewFleet(spec)
	for i := 0; i < 3; i++ {
		if !in.Killed("r1", 1500*time.Millisecond) {
			t.Fatal("answer changed across calls")
		}
		if !in.Blackholed("r1", time.Second) {
			t.Fatal("blackhole answer changed across calls")
		}
	}
}

// FuzzParseFleetSpec: arbitrary bytes must never panic, and every
// accepted spec must be realizable as an injector whose queries are
// callable at arbitrary times.
func FuzzParseFleetSpec(f *testing.F) {
	f.Add("rkill:r1@2s,restart=1s;probehole:r0@500ms,dur=250ms;rlat:r2@1s,dur=2s,add=50ms")
	f.Add("rkill:a@0s")
	f.Add(";;;")
	f.Add("rlat:x@1h,dur=0s,add=1ns")
	f.Add("probehole:p@999999h,dur=999999h")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFleetSpec(s)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("non-ErrBadSpec error: %v", err)
			}
			return
		}
		in := NewFleet(spec)
		for _, at := range []time.Duration{0, time.Millisecond, time.Second, time.Hour} {
			_ = in.Killed("r1", at)
			_ = in.Blackholed("r0", at)
		}
	})
}
