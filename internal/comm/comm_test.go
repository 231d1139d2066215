package comm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestModelTime(t *testing.T) {
	m := Model{Type: GPUToGPU, Beta0: 10 * time.Microsecond, Beta1: 1.0} // 1 ns per byte
	cases := []struct {
		bytes int64
		want  time.Duration
	}{
		{0, 10 * time.Microsecond},
		{1000, 11 * time.Microsecond},
		{-5, 10 * time.Microsecond},
	}
	for _, c := range cases {
		if got := m.Time(c.bytes); got != c.want {
			t.Errorf("Time(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

func TestModelTimeNeverNegative(t *testing.T) {
	m := Model{Beta0: -time.Second, Beta1: 0}
	if got := m.Time(10); got != 0 {
		t.Errorf("Time = %v, want 0", got)
	}
}

func TestFitRecoversExactLine(t *testing.T) {
	// Exact data on T = 5µs + 2ns/B should be recovered with R² = 1.
	var samples []Sample
	for _, b := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
		samples = append(samples, Sample{Bytes: b, Time: 5*time.Microsecond + time.Duration(2*b)*time.Nanosecond})
	}
	m, err := Fit(GPUToGPU, samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(m.Beta1-2) > 1e-6 {
		t.Errorf("Beta1 = %g, want 2", m.Beta1)
	}
	if d := m.Beta0 - 5*time.Microsecond; d < -time.Nanosecond || d > time.Nanosecond {
		t.Errorf("Beta0 = %v, want 5µs", m.Beta0)
	}
	if m.R2 < 0.999999 {
		t.Errorf("R2 = %g, want ~1", m.R2)
	}
}

func TestFitNoisyDataHighR2(t *testing.T) {
	// The paper reports R² of 0.92–0.99 for real profiles; with 5%
	// multiplicative noise, the fit should still land in that regime.
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 200; i++ {
		b := int64(1<<12 + rng.Intn(1<<24))
		base := 10e3 + 0.5*float64(b) // ns
		noisy := base * (1 + 0.05*rng.NormFloat64())
		samples = append(samples, Sample{Bytes: b, Time: time.Duration(noisy)})
	}
	m, err := Fit(CPUToGPU, samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.R2 < 0.92 {
		t.Errorf("R2 = %g, want >= 0.92", m.R2)
	}
	if math.Abs(m.Beta1-0.5) > 0.05 {
		t.Errorf("Beta1 = %g, want ~0.5", m.Beta1)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(GPUToGPU, nil); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("nil samples: %v, want ErrTooFewSamples", err)
	}
	same := []Sample{{Bytes: 10, Time: time.Millisecond}, {Bytes: 10, Time: 2 * time.Millisecond}}
	if _, err := Fit(GPUToGPU, same); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("degenerate samples: %v, want ErrTooFewSamples", err)
	}
}

func TestCostModelDefaultsOrdering(t *testing.T) {
	cm := NewCostModel()
	const mb = 1 << 20
	nv := cm.Time(GPUToGPU, 64*mb)
	pcie := cm.Time(CPUToGPU, 64*mb)
	if nv >= pcie {
		t.Errorf("NVLink (%v) should be faster than PCIe (%v) for large transfers", nv, pcie)
	}
	if nv <= 0 || pcie <= 0 {
		t.Errorf("transfer times must be positive: nv=%v pcie=%v", nv, pcie)
	}
}

func TestCostModelScaled(t *testing.T) {
	cm := NewCostModel()
	fast := cm.Scaled(10)
	slow := cm.Scaled(0.1)
	const b = 1 << 22
	base := cm.Time(GPUToGPU, b)
	if f := fast.Time(GPUToGPU, b); f >= base {
		t.Errorf("10x scale: %v should be < %v", f, base)
	}
	if s := slow.Time(GPUToGPU, b); s <= base {
		t.Errorf("0.1x scale: %v should be > %v", s, base)
	}
	// Non-positive factors fall back to identity.
	if id := cm.Scaled(0).Time(GPUToGPU, b); id != base {
		t.Errorf("Scaled(0) changed time: %v vs %v", id, base)
	}
}

func TestLinkTypeString(t *testing.T) {
	for lt, want := range map[LinkType]string{
		CPUToGPU: "CPU→GPU", GPUToCPU: "GPU→CPU", GPUToGPU: "GPU→GPU",
	} {
		if lt.String() != want {
			t.Errorf("%d.String() = %q, want %q", lt, lt.String(), want)
		}
	}
}

func TestPropertyFitInterpolatesMonotonically(t *testing.T) {
	// For any positive slope/intercept line, the fitted model's
	// predictions must be monotone in size.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b0 := time.Duration(rng.Intn(100000)) * time.Nanosecond
		b1 := rng.Float64() * 3
		var samples []Sample
		for i := 0; i < 20; i++ {
			b := int64((i + 1) * 4096)
			samples = append(samples, Sample{Bytes: b, Time: b0 + time.Duration(b1*float64(b))})
		}
		m, err := Fit(GPUToGPU, samples)
		if err != nil {
			return false
		}
		prev := time.Duration(-1)
		for _, b := range []int64{0, 1 << 10, 1 << 15, 1 << 20, 1 << 25} {
			cur := m.Time(b)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
