package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The committed reference makespans of the pinned corpus. They anchor
// quality_ratio: a later change to the baselines cannot quietly rescale
// it. An input with no pin uses the value set-up computes by the same
// procedure. The file is written only by an explicit -write-reference
// run and never during a measured one.
//
//go:embed testdata/reference.json
var referenceJSON []byte

const referencePath = "bench/testdata/reference.json"

// referenceFile is the schema of testdata/reference.json: workload ->
// input key -> reference makespan in nanoseconds.
type referenceFile struct {
	Note      string                      `json:"note"`
	Workloads map[string]map[string]int64 `json:"workloads"`
}

// pins are the pinned reference makespans of one workload.
type pins struct {
	workload string
	byKey    map[string]int64
	warned   bool
}

// loadPins returns the pinned references of the workload.
func loadPins(workload string) *pins {
	p := &pins{workload: workload}
	var f referenceFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v; computing references instead\n", referencePath, err)
		return p
	}
	p.byKey = f.Workloads[workload]
	return p
}

// ref is the pinned reference of key, or computed when none is pinned.
// A pin that no longer matches what set-up computes means the baselines
// moved; it is said once and the pin still wins, so the yardstick does
// not.
func (p *pins) ref(key string, computed time.Duration) time.Duration {
	ns, ok := p.byKey[key]
	if !ok {
		return computed
	}
	if ns != int64(computed) && !p.warned {
		p.warned = true
		fmt.Fprintf(stderr, "bench: %s %s: baseline now gives %v, pinned reference is %v; keeping the pin\n",
			p.workload, key, computed, time.Duration(ns))
	}
	return time.Duration(ns)
}

// writeReference builds every workload and writes the references the
// builds computed to testdata/reference.json. It must run from the
// repository root. Inputs that are already pinned keep their pin; delete
// the file's entries first to move the yardstick.
func writeReference() error {
	f := referenceFile{
		Note:      "reference makespan (ns) per input: best of BestBaechi and HEFT, re-simulated by verify.Check; written by `go run ./bench -write-reference`",
		Workloads: map[string]map[string]int64{},
	}
	for _, w := range workloads {
		inst, err := w.build(corpusSeed, scale{})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		f.Workloads[w.name] = inst.references()
		inst.close()
	}
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(referencePath, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write reference (run from the repository root): %w", err)
	}
	fmt.Fprintf(stderr, "bench: wrote %s\n", referencePath)
	return nil
}
