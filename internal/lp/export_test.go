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
