package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Add("x", 1)
	r.Point("p")
	r.Sample("s", 1.5)
	r.FlushCounters()
	if got := r.Counter("x"); got != 0 {
		t.Fatalf("nil Counter = %d, want 0", got)
	}
	if got := r.Counters(); got != nil {
		t.Fatalf("nil Counters = %v, want nil", got)
	}
	ctx := context.Background()
	if got := Into(ctx, nil); got != ctx {
		t.Fatal("Into(nil) should return ctx unchanged")
	}
	ctx2, sp := Start(ctx, "work")
	if ctx2 != ctx {
		t.Fatal("Start without recorder should return ctx unchanged")
	}
	if sp != nil {
		t.Fatal("Start without recorder should return nil span")
	}
	sp.Annotate(String("k", "v"))
	sp.End()
}

func TestSpanHierarchy(t *testing.T) {
	sink := NewMemorySink()
	rec := NewRecorder(sink)
	ctx := Into(context.Background(), rec)

	ctx, root := Start(ctx, "root", String("stage", "ilp"))
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grand")
	grand.End()
	child.End(Int("nodes", 7))
	// Sibling of child, still under root.
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	recs := sink.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	root_, child_, grand_, sib_ := byName["root"], byName["child"], byName["grand"], byName["sibling"]
	if root_.Parent != 0 {
		t.Errorf("root parent = %d, want 0", root_.Parent)
	}
	if child_.Parent != root_.ID {
		t.Errorf("child parent = %d, want root id %d", child_.Parent, root_.ID)
	}
	if grand_.Parent != child_.ID {
		t.Errorf("grand parent = %d, want child id %d", grand_.Parent, child_.ID)
	}
	if sib_.Parent != root_.ID {
		t.Errorf("sibling parent = %d, want root id %d", sib_.Parent, root_.ID)
	}
	ids := map[uint64]bool{}
	for _, r := range recs {
		if r.Kind != KindSpan {
			t.Errorf("record %q kind = %v, want span", r.Name, r.Kind)
		}
		if r.ID == 0 || ids[r.ID] {
			t.Errorf("span %q has zero or duplicate id %d", r.Name, r.ID)
		}
		ids[r.ID] = true
		if r.Dur < 0 {
			t.Errorf("span %q has negative duration", r.Name)
		}
	}
	if len(child_.Attrs) != 1 || child_.Attrs[0].Key != "nodes" || child_.Attrs[0].Value != "7" {
		t.Errorf("child attrs = %v, want [{nodes 7}]", child_.Attrs)
	}
	if len(root_.Attrs) != 1 || root_.Attrs[0] != String("stage", "ilp") {
		t.Errorf("root attrs = %v", root_.Attrs)
	}
}

func TestCountersConcurrent(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rec.Add("lp.pivots", 2)
				rec.Add("ilp.nodes", 1)
			}
		}()
	}
	wg.Wait()
	if got := rec.Counter("lp.pivots"); got != 16000 {
		t.Errorf("lp.pivots = %d, want 16000", got)
	}
	if got := rec.Counter("ilp.nodes"); got != 8000 {
		t.Errorf("ilp.nodes = %d, want 8000", got)
	}
	snap := rec.Counters()
	if snap["lp.pivots"] != 16000 || snap["ilp.nodes"] != 8000 {
		t.Errorf("Counters() = %v", snap)
	}
	if got := rec.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

func TestFlushCountersSorted(t *testing.T) {
	sink := NewMemorySink()
	rec := NewRecorder(sink)
	rec.Add("zeta", 3)
	rec.Add("alpha", 1)
	rec.Add("mid", 2)
	rec.FlushCounters()
	recs := sink.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	wantNames := []string{"counter.alpha", "counter.mid", "counter.zeta"}
	wantVals := []float64{1, 2, 3}
	for i, r := range recs {
		if r.Kind != KindSample || r.Name != wantNames[i] || r.Value != wantVals[i] {
			t.Errorf("record %d = {%v %q %g}, want {sample %q %g}", i, r.Kind, r.Name, r.Value, wantNames[i], wantVals[i])
		}
	}
}

func TestPointAndSample(t *testing.T) {
	sink := NewMemorySink()
	rec := NewRecorder(sink)
	rec.Point("incumbent", F64("objective", 12.5))
	rec.Sample("ilp.bound", 3.25, Int("batch", 2))
	recs := sink.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Kind != KindPoint || recs[0].Name != "incumbent" {
		t.Errorf("point = %+v", recs[0])
	}
	if recs[1].Kind != KindSample || recs[1].Value != 3.25 {
		t.Errorf("sample = %+v", recs[1])
	}
	if recs[1].Ts < recs[0].Ts {
		t.Errorf("timestamps regressed: %v then %v", recs[0].Ts, recs[1].Ts)
	}
}

func TestBoundedMemorySink(t *testing.T) {
	sink := NewBoundedMemorySink(2)
	rec := NewRecorder(sink)
	rec.Point("a")
	rec.Point("b")
	rec.Point("c")
	recs := sink.Records()
	if len(recs) != 2 || recs[0].Name != "a" || recs[1].Name != "b" {
		t.Errorf("records = %+v, want the first two, a and b", recs)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(NewJSONLSink(&buf))
	ctx := Into(context.Background(), rec)
	_, sp := Start(ctx, "solve", String("stage", "ilp-exact"))
	sp.End(Int("nodes", 3))
	rec.Sample("ilp.incumbent", 9.5)
	rec.Point("evicted")

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	span := lines[0]
	if span["msg"] != "solve" {
		t.Errorf("span msg = %v", span["msg"])
	}
	grp, ok := span["obs"].(map[string]any)
	if !ok {
		t.Fatalf("span obs group missing: %v", span)
	}
	if grp["kind"] != "span" || grp["stage"] != "ilp-exact" || grp["nodes"] != "3" {
		t.Errorf("span group = %v", grp)
	}
	if grp["dur_us"] == nil || grp["span"] == nil {
		t.Errorf("span group missing dur_us/span: %v", grp)
	}
	sample := lines[1]["obs"].(map[string]any)
	if sample["kind"] != "sample" || sample["value"] != 9.5 {
		t.Errorf("sample group = %v", sample)
	}
	point := lines[2]["obs"].(map[string]any)
	if point["kind"] != "point" {
		t.Errorf("point group = %v", point)
	}
}

func TestAppendAttrsJSON(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attr
		want  string
	}{
		{"empty", nil, `{}`},
		{"one", []Attr{String("k", "v")}, `{"k":"v"}`},
		{"two", []Attr{String("a", "1"), Int("b", 2)}, `{"a":"1","b":"2"}`},
		{"escape", []Attr{String("q", "a\"b\\c\nd\te\rf")}, `{"q":"a\"b\\c\nd\te\rf"}`},
		{"control", []Attr{String("c", "\x01")}, `{"c":"\u0001"}`},
		{"unicode", []Attr{String("u", "héllo—世界")}, `{"u":"héllo—世界"}`},
		{"invalid-utf8", []Attr{String("x", "a\xffb")}, `{"x":"a` + "�" + `b"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := string(AppendAttrsJSON(nil, tc.attrs))
			if got != tc.want {
				t.Errorf("AppendAttrsJSON = %s, want %s", got, tc.want)
			}
			if !json.Valid([]byte(got)) {
				t.Errorf("output not valid JSON: %s", got)
			}
		})
	}
}

func TestAppendAttrsJSONRoundTrip(t *testing.T) {
	attrs := []Attr{String("stage", "warm-start+refine"), Dur("elapsed", 1500*time.Millisecond), Bool("degraded", true)}
	var m map[string]string
	if err := json.Unmarshal(AppendAttrsJSON(nil, attrs), &m); err != nil {
		t.Fatal(err)
	}
	if m["stage"] != "warm-start+refine" || m["elapsed"] != "1.5s" || m["degraded"] != "true" {
		t.Errorf("round trip = %v", m)
	}
}

func TestConcurrentSpansAndSinks(t *testing.T) {
	sink := NewMemorySink()
	rec := NewRecorder(sink)
	ctx := Into(context.Background(), rec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := Start(ctx, "task", Int("worker", int64(g)))
				rec.Add("engine.tasks", 1)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if n := len(sink.Records()); n != 400 {
		t.Errorf("records = %d, want 400", n)
	}
	if rec.Counter("engine.tasks") != 400 {
		t.Errorf("engine.tasks = %d, want 400", rec.Counter("engine.tasks"))
	}
	seen := map[uint64]bool{}
	for _, r := range sink.Records() {
		if seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func BenchmarkStartEndDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "work")
		_ = c
		sp.End()
	}
}

func BenchmarkAddDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add("x", 1)
	}
}

func BenchmarkStartEndEnabled(b *testing.B) {
	rec := NewRecorder(NewMemorySink())
	ctx := Into(context.Background(), rec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := Start(ctx, "work")
		sp.End()
	}
}
