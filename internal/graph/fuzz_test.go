package graph_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pesto/internal/gen"
	"pesto/internal/graph"
)

// jsonQuirks are graph documents on each point where encoding/json's
// behaviour is easy to get wrong by hand; the decoder must match it on
// every one.
var jsonQuirks = []string{
	// Keys: exact match first, then case-insensitive with Unicode
	// folding (the Kelvin sign folds to k, the long s to s).
	`{"NODES":[{"ID":0,"\u212aIND":2,"CostNanos":5}],"Edges":[]}`,
	`{"nodes":[{"id":0,"kind":2,"co\u017ftNanos":5,"name":"a"}]}`,
	"{\"nodes\":[{\"id\":0,\"\u212aind\":2,\"co\u017ftNanos\":5}]}",
	`{"nodes":[{"id":0,"idx":1,"i d":2,"kinds":3}]}`,
	// Duplicate keys: the last wins, and a repeated array decodes over
	// the elements the previous one left, up to their capacity.
	`{"nodes":[{"id":0,"name":"a","kind":2},{"id":1,"name":"b","layer":3}],"nodes":[{"id":0}],"nodes":[{"id":0},{"id":1}]}`,
	`{"nodes":[{"id":0},{"id":1}],"nodes":[],"nodes":[{"id":0},{"id":1,"name":"c"}]}`,
	`{"nodes":[{"id":0,"kind":2,"kind":1}],"edges":[{"from":0,"to":0}],"edges":[]}`,
	// null leaves a field or element unchanged, empties a slice, and is
	// the empty graph at the top.
	`{"nodes":[{"id":0,"name":null,"kind":null}],"edges":null}`,
	`{"nodes":[null]}`,
	`{"nodes":[{"id":0},null]}`,
	`{"nodes":[{"id":0}],"nodes":null}`,
	`null`,
	` null `,
	// Integers: no fraction, exponent, overflow, string or bool.
	`{"nodes":[{"id":0.0}]}`,
	`{"nodes":[{"id":0e0}]}`,
	`{"nodes":[{"id":-0,"costNanos":-9223372036854775808,"memoryBytes":9223372036854775807}]}`,
	`{"nodes":[{"id":0,"costNanos":9223372036854775808}]}`,
	`{"nodes":[{"id":0,"costNanos":-9223372036854775809}]}`,
	`{"nodes":[{"id":0,"layer":99999999999999999999}]}`,
	`{"nodes":[{"id":"0"}]}`,
	`{"nodes":[{"id":true}]}`,
	`{"nodes":[{"id":01}]}`,
	`{"nodes":[{"id":-}]}`,
	`{"nodes":[{"id":[0]}]}`,
	`{"nodes":[{"id":0,"name":5}]}`,
	`{"nodes":[{"id":0,"name":{}}]}`,
	`{"nodes":{"id":0}}`,
	`{"nodes":[[0]]}`,
	// Strings: escapes, surrogate pairs, lone surrogates and invalid
	// UTF-8 (U+FFFD per bad byte).
	`{"nodes":[{"id":0,"name":"a\/b\"\\\b\f\n\r\t\u00e9\ud83d\ude00"}]}`,
	`{"nodes":[{"id":0,"name":"\ud800x\udc00\ud800\u0041\udbff\udfff\ud800\ud800\udc00"}]}`,
	"{\"nodes\":[{\"id\":0,\"name\":\"\xff\xe2\x84 \xf0\x9f\x98\x80 \xed\xa0\x80\"}]}",
	"{\"nodes\":[{\"id\":0,\"name\":\"a\x01\"}]}",
	`{"nodes":[{"id":0,"name":"\x"}]}`,
	`{"nodes":[{"id":0,"name":"\u12G4"}]}`,
	`{"nodes":[{"id":0,"name":"\'"}]}`,
	// Unknown members are ignored, but must be valid JSON.
	`{"nodes":[{"id":0,"extra":[1,{"a":null,"b":[true,false,-1.5e+3,0.25E-2]}]}],"edges":[],"meta":{"x":"y"}}`,
	`{"nodes":[],"meta":[1,]}`,
	`{"nodes":[],"meta":tru}`,
	`{"nodes":[],"meta":{"a" 1}}`,
	`{"nodes":[],"meta":1.}`,
	`{"nodes":[],"meta":-01}`,
	`{"nodes":[],"meta":"\u00"}`,
	`{"nodes":[],,"edges":[]}`,
	`{"nodes":[],}`,
	`{"nodes":[1 2]}`,
	// Nesting: 10000 levels are accepted, 10001 are not.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `0` + strings.Repeat("}", 9999) + `}`,
	// One value, then only whitespace.
	`{} x`,
	`{}]`,
	`{}}`,
	"{}\t\r\n ",
	``,
	` `,
}

// FuzzGraphJSON holds the single-pass decoder to its reflective twin:
// both accept or both reject every input, and an accepted input gives
// the same nodes, the same edges in the same insertion order and the
// same fingerprint, as a valid DAG that round-trips.
func FuzzGraphJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"nodes":[],"edges":[]}`,
		`{"nodes":[{"id":0,"name":"a","kind":2,"costNanos":100}],"edges":[]}`,
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"bytes":7}]}`,
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":1,"to":0,"bytes":7},{"from":0,"to":1,"bytes":1}]}`,
		`{"nodes":[{"id":5}],"edges":[]}`,
		`[1,2,3]`,
		`{"nodes":[{"id":0,"costNanos":-5}],"edges":[]}`,
	}
	for _, s := range append(seeds, jsonQuirks...) {
		f.Add([]byte(s))
	}
	for _, g := range zipfCorpus(f) {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadJSON(bytes.NewReader(data))
		want, werr := graph.OracleReadJSON(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, werr)
		}
		if err != nil {
			return
		}
		if d := graphDiff(g, want); d != "" {
			t.Fatalf("decoder and encoding/json disagree: %s", d)
		}
		// Accepted input must be a coherent DAG.
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var back graph.Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		// Edges are written grouped by source, so only the successor
		// order survives a round trip.
		if !reflect.DeepEqual(back.Nodes(), g.Nodes()) || !reflect.DeepEqual(back.Edges(), g.Edges()) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// graphDiff describes the first difference between two graphs in
// anything a decoder sets: nodes, adjacency order and fingerprint.
func graphDiff(a, b *graph.Graph) string {
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		return fmt.Sprintf("nodes %+v vs %+v", a.Nodes(), b.Nodes())
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		return fmt.Sprintf("edges %v vs %v", a.Edges(), b.Edges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		id := graph.NodeID(i)
		if !reflect.DeepEqual(a.Pred(id), b.Pred(id)) {
			return fmt.Sprintf("pred(%d) %v vs %v", i, a.Pred(id), b.Pred(id))
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		return "fingerprints differ"
	}
	return ""
}

// zipfCorpus is the graph corpus of the serving benchmark: 128 graphs
// of 8 to 63 operations drawn by gen.NewTrace at seed 7.
func zipfCorpus(tb testing.TB) []*graph.Graph {
	tb.Helper()
	tr, err := gen.NewTrace(gen.TraceConfig{Corpus: 128, Requests: 1, Skew: 1.2, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*graph.Graph, len(tr.Configs))
	for i, cfg := range tr.Configs {
		if out[i], err = gen.Generate(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}
