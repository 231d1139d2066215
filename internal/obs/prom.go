package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of every latency
// histogram. They bracket the serving regimes: cache hits and
// heuristic-rung solves (≤ 25ms), refinement-rung solves (≤ 1s), and
// ILP-rung solves (seconds to tens of seconds). A router hop is a full
// replica round trip, so it shares the range.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30}

// Histogram is a fixed-bucket latency histogram. It is not locked:
// its owner guards it with the lock its other metrics share.
type Histogram struct {
	counts [len(latencyBuckets) + 1]int64 // the last bucket is +Inf
	sum    float64
	count  int64
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	h.counts[sort.SearchFloat64s(latencyBuckets[:], s)]++
	h.sum += s
	h.count++
}

// PromWriter writes the Prometheus text exposition format: a HELP and
// TYPE header per family, then its samples. Values print with %v, so
// integers as %d and floats as %g; label values are quoted with %q, in
// the order given. Callers emit label sets in sorted order (see
// ScrapeOrder) so consecutive scrapes of an idle process are
// byte-identical.
type PromWriter struct{ W io.Writer }

// Family writes one family's HELP and TYPE header.
func (p PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample; labels alternate name and value.
func (p PromWriter) Sample(name string, v any, labels ...string) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += fmt.Sprintf("%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	fmt.Fprintf(p.W, "%s %v\n", name, v)
}

// Counter writes a counter family of one unlabelled sample.
func (p PromWriter) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(name, v)
}

// Gauge writes a gauge family of one unlabelled sample.
func (p PromWriter) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(name, v)
}

// CounterVec writes a counter family with one sample per key of m,
// labelled label=key.
func (p PromWriter) CounterVec(name, help, label string, m map[string]int64) {
	p.Family(name, "counter", help)
	for _, k := range ScrapeOrder(m) {
		p.Sample(name, m[k], label, k)
	}
}

// Histograms writes a histogram family with one series per key of hs,
// labelled label=key: cumulative buckets ending in le="+Inf", then
// _sum and _count.
func (p PromWriter) Histograms(name, help, label string, hs map[string]*Histogram) {
	p.Family(name, "histogram", help)
	for _, k := range ScrapeOrder(hs) {
		h, cum := hs[k], int64(0)
		for i, c := range h.counts {
			le := "+Inf"
			if i < len(latencyBuckets) {
				le = fmt.Sprint(latencyBuckets[i])
			}
			cum += c
			p.Sample(name+"_bucket", cum, label, k, "le", le)
		}
		p.Sample(name+"_sum", h.sum, label, k)
		p.Sample(name+"_count", h.count, label, k)
	}
}

// ScrapeOrder returns m's keys sorted: the order a scrape emits label
// values in.
func ScrapeOrder[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
