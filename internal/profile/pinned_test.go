package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pesto/internal/comm"
	"pesto/internal/sim"
)

// commPinnedFile records Communication's fitted model per link type and
// seed. Like the other *_pinned.txt files it is a record of behaviour, not
// a golden to refresh: scripts/pin.sh regenerates it on an export of a
// base commit after a deliberate change.
var commPinnedFile = filepath.Join("testdata", "comm_pinned.txt")

// TestCommPinned pins β0, β1 and R² of the model Communication fits with
// its default probe sizes, sample count and noise, for seeds 1–3 on every
// link type of the paper's testbed.
func TestCommPinned(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# profile.Communication fits: seed link beta0_ns beta1_ns_per_byte r2\n")
	sys := sim.NewSystem(2, 16<<30)
	for seed := int64(1); seed <= 3; seed++ {
		for _, lt := range []comm.LinkType{comm.CPUToGPU, comm.GPUToCPU, comm.GPUToGPU} {
			prof, err := Communication(sys, lt, seed)
			if err != nil {
				t.Fatal(err)
			}
			m := prof.Model
			fmt.Fprintf(&buf, "s%d %v %d %s %s\n", seed, lt, m.Beta0.Nanoseconds(),
				strconv.FormatFloat(m.Beta1, 'g', -1, 64), strconv.FormatFloat(m.R2, 'g', -1, 64))
		}
	}
	got := buf.Bytes()
	if os.Getenv("PESTO_PIN_UPDATE") != "" {
		if err := os.WriteFile(commPinnedFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(commPinnedFile)
	if err != nil {
		t.Fatalf("%v\ncomputed listing:\n%s", err, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("communication fits changed; computed listing:\n%s\nwant:\n%s", got, want)
	}
}
