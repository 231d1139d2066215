package obs

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// scrapeGoldens are the committed /metrics expositions of pestod and
// the fleet router, idle and populated.
var scrapeGoldens = []string{
	"../service/testdata/metrics_idle.golden.txt",
	"../service/testdata/metrics_busy.golden.txt",
	"../fleet/testdata/fleet_metrics_idle.golden.txt",
	"../fleet/testdata/fleet_metrics_busy.golden.txt",
}

var sampleLine = regexp.MustCompile(`^([a-z_]+)(\{(.*)\})? (\S+)$`)

// TestScrapeGoldensWellFormed holds every golden scrape to the text
// format: each family is declared once, HELP then TYPE; every sample
// follows its own family's header; histogram buckets are cumulative
// and their le="+Inf" bucket equals _count.
func TestScrapeGoldensWellFormed(t *testing.T) {
	for _, path := range scrapeGoldens {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkExposition(t, data)
		})
	}
}

func checkExposition(t *testing.T, data []byte) {
	t.Helper()
	declared := map[string]bool{}
	var family, typ string
	lastBucket := map[string]float64{} // series labels without le → last cumulative count
	infBucket := map[string]float64{}
	counts := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if declared[name] {
				t.Fatalf("line %d: family %s declared twice", n, name)
			}
			declared[name] = true
			family, typ = name, ""
			if !sc.Scan() {
				t.Fatalf("line %d: HELP for %s without TYPE", n, name)
			}
			n++
			tline := sc.Text()
			want := "# TYPE " + name + " "
			if !strings.HasPrefix(tline, want) {
				t.Fatalf("line %d: %q does not follow HELP with %q", n, tline, want)
			}
			typ = strings.TrimPrefix(tline, want)
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", n, line)
		}
		name, labels := m[1], m[3]
		value, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q", n, line)
		}
		suffix := strings.TrimPrefix(name, family)
		switch {
		case family == "" || !strings.HasPrefix(name, family):
			t.Fatalf("line %d: sample %s outside its family (current %q)", n, name, family)
		case suffix == "":
			if typ == "histogram" || typ == "summary" {
				t.Fatalf("line %d: bare sample in %s family %s", n, typ, family)
			}
		case (typ == "histogram" && suffix == "_bucket") || ((typ == "histogram" || typ == "summary") && (suffix == "_sum" || suffix == "_count")):
		default:
			t.Fatalf("line %d: sample %s does not belong to %s family %s", n, name, typ, family)
		}
		if suffix == "_bucket" {
			i := strings.LastIndex(labels, `le="`)
			if i < 0 {
				t.Fatalf("line %d: bucket without le: %q", n, line)
			}
			series := name + "{" + strings.TrimSuffix(labels[:i], ",") + "}"
			if value < lastBucket[series] {
				t.Fatalf("line %d: bucket count %g below the previous %g", n, value, lastBucket[series])
			}
			lastBucket[series] = value
			if labels[i:] == `le="+Inf"` {
				infBucket[family+"{"+strings.TrimSuffix(labels[:i], ",")+"}"] = value
			}
		}
		if suffix == "_count" && typ == "histogram" {
			counts[family+"{"+labels+"}"] = value
		}
	}
	if len(infBucket) != len(counts) {
		t.Fatalf("%d +Inf buckets but %d histogram counts", len(infBucket), len(counts))
	}
	for series, c := range counts {
		if inf, ok := infBucket[series]; !ok || inf != c {
			t.Fatalf("%s: le=\"+Inf\" bucket %g (present %v) != _count %g", series, inf, ok, c)
		}
	}
}
