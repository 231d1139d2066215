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
// IEEE-754 bits, and the exported basis — basic set, column statuses and
// the eta file entry by entry.
func DigestSolution(w io.Writer, sol Solution) {
	fmt.Fprintf(w, "status %d iters %d dualfeas %t obj %016x\n",
		sol.Status, sol.Iters, sol.DualFeasible, math.Float64bits(sol.Objective))
	for j, x := range sol.X {
		fmt.Fprintf(w, "x %d %016x\n", j, math.Float64bits(x))
	}
	b := sol.Basis
	if b == nil {
		return
	}
	fmt.Fprintf(w, "basis %d %d nnz %d\nbasic %v\nstatus %v\n", b.rows, b.cols, b.etaNnz, b.basic, b.status)
	for k, e := range b.etas {
		fmt.Fprintf(w, "eta %d r %d diag %016x", k, e.r, math.Float64bits(e.invDiag))
		for p, i := range e.idx {
			fmt.Fprintf(w, " %d:%016x", i, math.Float64bits(e.val[p]))
		}
		fmt.Fprintln(w)
	}
}
