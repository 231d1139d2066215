package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFleetMetricsGoldenBusy pins a populated router scrape
// byte-for-byte: every endpoint/outcome pair, all four hop kinds across
// the bucket boundaries (first bucket, exactly on 0.025, a middle
// bucket, past 30 s), the retry/hedge/failover/warm-sync/batch
// counters, and one replica in each condition — up, down, half-open and
// open. Regenerate with -update.
func TestFleetMetricsGoldenBusy(t *testing.T) {
	mkOK := func(id string) *fakeBackend {
		return &fakeBackend{id: id, fn: func(ctx context.Context, m, p string, b []byte) (*Response, error) { return ok200(`{}`), nil }}
	}
	rt, err := New(Config{}, mkOK("r0"), mkOK("r1"), mkOK("r2"), mkOK("r3"))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.met
	outcomes := []string{"ok", "client_error", "upstream_error", "bad_request", "too_large", "unavailable"}
	for i, ep := range []string{"place", "trace", "batch"} {
		for j, oc := range outcomes {
			for k := 0; k <= (i+j)%3; k++ {
				m.request(ep, oc)
			}
		}
	}
	for _, h := range []struct {
		kind string
		d    time.Duration
	}{
		{"first", 500 * time.Microsecond}, // first bucket
		{"first", 25 * time.Millisecond},  // exactly on the 0.025 bound
		{"first", 2500 * time.Millisecond},
		{"retry", 40 * time.Millisecond}, // a middle bucket
		{"retry", 3 * time.Millisecond},
		{"hedge", 300 * time.Millisecond},
		{"last-resort", 31 * time.Second}, // past 30 s: +Inf only
	} {
		m.observeHop(h.kind, h.d)
	}
	for k := 0; k < 3; k++ {
		m.addRetry()
	}
	m.addHedge()
	m.addHedge()
	m.addHedgeWin()
	for k := 0; k < 4; k++ {
		m.addFailover()
	}
	m.addWarmsyncKeys(17)
	m.addBatch(7, 3)

	// r0 up and closed; r1 marked down by the prober; r2's breaker open;
	// r3's breaker half-open with its trial request in flight.
	t0 := time.Unix(1754550000, 0)
	rt.reps[1].up = false
	for _, r := range rt.reps[2:] {
		for k := 0; k < 8; k++ {
			r.br.record(t0, false)
		}
	}
	if !rt.reps[3].br.allow(t0.Add(3 * time.Second)) {
		t.Fatal("open breaker did not admit its half-open trial")
	}

	var buf bytes.Buffer
	m.write(&buf)
	golden := filepath.Join("testdata", "fleet_metrics_busy.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("busy fleet metrics changed; run with -update if intentional.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
