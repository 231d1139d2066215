package lp

import (
	"math"
	"math/rand"
	"testing"
)

// btranSkipZeros is btranInPlace as it was before it dropped its test
// for a zero y_i: the differential twin TestBtranMatchesSkipZeros holds
// the branch-free loop to.
func btranSkipZeros(etas []eta, y []float64) {
	for k := len(etas) - 1; k >= 0; k-- {
		e := &etas[k]
		acc := y[e.r]
		for p, i := range e.idx {
			if v := y[i]; v != 0 {
				acc -= v * e.val[p]
			}
		}
		y[e.r] = acc * e.invDiag
	}
}

// TestBtranMatchesSkipZeros runs btranInPlace and its twin on random eta
// files whose entries and right-hand sides hold explicit +0 and −0, and
// compares every output with ==: the two may differ only in the sign of
// an exact zero, which == ignores.
func TestBtranMatchesSkipZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// entry draws a value that is +0, −0 or a nonzero in (−1, 1).
	entry := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return 2*rng.Float64() - 1
		}
	}
	nonzero, zeros := 0, 0
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(40)
		etas := make([]eta, rng.Intn(60))
		for k := range etas {
			r := rng.Intn(m)
			e := eta{r: int32(r), invDiag: (0.5 + rng.Float64()) * float64(1-2*rng.Intn(2))}
			for i := 0; i < m && len(e.idx) < 8; i++ {
				if i != r && rng.Intn(3) == 0 {
					e.idx = append(e.idx, int32(i))
					e.val = append(e.val, entry())
				}
			}
			etas[k] = e
		}
		got := make([]float64, m)
		for i := range got {
			got[i] = entry()
		}
		want := append([]float64(nil), got...)
		s := &revised{etas: etas}
		s.btranInPlace(got)
		btranSkipZeros(etas, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d rows, %d etas): y[%d] = %v, skipping zeros gives %v", trial, m, len(etas), i, got[i], want[i])
			}
			if got[i] != 0 {
				nonzero++
			} else {
				zeros++
			}
		}
	}
	if nonzero < 1000 || zeros < 100 {
		t.Fatalf("%d nonzero and %d zero outputs: the corpus does not exercise both", nonzero, zeros)
	}
}
