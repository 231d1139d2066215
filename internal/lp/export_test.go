package lp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
)

// StallBland exposes the dual simplex's stall threshold to the external
// test package.
const StallBland = stallBland

// RandomLP exposes the differential corpus generator to the external
// test package.
func RandomLP(rng *rand.Rand) *Problem { return randomLP(rng) }

// DigestSolution writes every bit of sol that TestSolvePinned pins to w:
// status, iteration count, dual-feasibility flag, the objective and X as
// IEEE-754 bits, and the exported basis — its row count and every
// column's status.
func DigestSolution(w io.Writer, sol Solution) {
	fmt.Fprintf(w, "status %d iters %d dualfeas %t obj %016x\n",
		sol.Status, sol.Iters, sol.DualFeasible, math.Float64bits(sol.Objective))
	for j, x := range sol.X {
		fmt.Fprintf(w, "x %d %016x\n", j, math.Float64bits(x))
	}
	if b := sol.Basis; b != nil {
		fmt.Fprintf(w, "basis %d\nstatus %v\n", b.rows, b.status)
	}
}

// DigestForm writes what a solve of p reads to w: each variable's
// objective coefficient and bounds, then each row of the standard form
// shape.build makes — its slack bounds, b and its equilibrated
// coefficients in ascending column order — all as IEEE-754 bits. It
// digests the standard form, not p's constraint list, so rows whose
// terms are listed in another order digest the same.
func DigestForm(w io.Writer, p *Problem) error {
	var f shape
	if err := f.build(p); err != nil {
		return err
	}
	for j := 0; j < p.numVars; j++ {
		fmt.Fprintf(w, "var %d %016x %016x %016x\n", j,
			math.Float64bits(p.obj[j]), math.Float64bits(p.lower[j]), math.Float64bits(p.upper[j]))
	}
	for i, r := range f.rows {
		fmt.Fprintf(w, "row %d slack %016x %016x b %016x", i,
			math.Float64bits(f.slackLo[i]), math.Float64bits(f.slackHi[i]), math.Float64bits(f.b[i]))
		for k, j := range r.idx {
			fmt.Fprintf(w, " %d:%016x", j, math.Float64bits(r.val[k]))
		}
		fmt.Fprintln(w)
	}
	return nil
}
