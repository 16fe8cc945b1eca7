package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSortedSnapshot(t *testing.T) {
	m := map[string]int{"zeta": 1, "alpha": 2, "mid": 3}
	got := SortedSnapshot(m)
	want := []KV[int]{{"alpha", 2}, {"mid", 3}, {"zeta", 1}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := SortedSnapshot(map[string]string(nil)); len(out) != 0 {
		t.Fatalf("nil map snapshot = %v, want empty", out)
	}
}

func TestSplitName(t *testing.T) {
	base, labels, ok := splitName(`repair_bytes_total{method="R_ALL"}`)
	if !ok || base != "repair_bytes_total" || len(labels) != 1 ||
		labels[0] != (Label{Key: "method", Value: "R_ALL"}) {
		t.Fatalf("splitName = %q %v %v", base, labels, ok)
	}
	if _, _, ok := splitName(`x{y="1"`); ok {
		t.Fatal("unterminated label block accepted")
	}
	if _, _, ok := splitName(`x{y=1}`); ok {
		t.Fatal("unquoted label value accepted")
	}
	if !validName("a_total") || validName("") || validName("9lead") || validName("sp ace") {
		t.Fatal("validName misclassifies bare names")
	}
}

func TestFormatLabelsCanonical(t *testing.T) {
	got := formatLabels([]Label{{Key: "z", Value: "1"}, {Key: "m", Value: `q"`}, {Key: "a", Value: "2"}})
	if got != `{a="2",m="q\"",z="1"}` {
		t.Fatalf("formatLabels = %s", got)
	}
	if formatLabels(nil) != "" {
		t.Fatal("empty label set must render as empty string")
	}
}

// TestWritePrometheusRoundTrip renders a populated registry and feeds
// the page back through the strict parser — the same check make
// obs-smoke applies to a live endpoint.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(12)
	r.Counter(`repair_bytes_total{method="R_ALL"}`).Add(100)
	r.Counter(`repair_bytes_total{method="R_MIN"}`).Add(7)
	r.Gauge("depth").Set(-3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	p, err := ParsePrometheus(strings.NewReader(page))
	if err != nil {
		t.Fatalf("own output does not parse: %v\npage:\n%s", err, page)
	}
	for base, kind := range map[string]string{
		"events_total":       "counter",
		"repair_bytes_total": "counter",
		"depth":              "gauge",
	} {
		if got := p.Types[base]; got != kind {
			t.Errorf("TYPE %s = %q, want %q", base, got, kind)
		}
	}
	for series, want := range map[string]float64{
		"events_total":                       12,
		`repair_bytes_total{method="R_ALL"}`: 100,
		`repair_bytes_total{method="R_MIN"}`: 7,
		"depth":                              -3,
	} {
		got, ok := p.Sample(series)
		if !ok {
			t.Errorf("series %s missing\npage:\n%s", series, page)
			continue
		}
		if got != want {
			t.Errorf("series %s = %v, want %v", series, got, want)
		}
	}
}

func TestParsePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "orphan_total 3\n",
		"duplicate TYPE":       "# TYPE a counter\n# TYPE a counter\na 1\n",
		"duplicate series":     "# TYPE a counter\na 1\na 2\n",
		"bad value":            "# TYPE a counter\na banana\n",
		"unknown metric type":  "# TYPE a flummox\na 1\n",
		"histogram type":       "# TYPE h histogram\nh_count 0\n",
		"series with no value": "# TYPE a counter\na\n",
	}
	for name, page := range cases {
		if _, err := ParsePrometheus(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parser accepted %q", name, page)
		}
	}
	ok := "# TYPE a counter\n# some comment\n\na 1\n# TYPE g gauge\ng{k=\"v\"} -2\n"
	if _, err := ParsePrometheus(strings.NewReader(ok)); err != nil {
		t.Errorf("valid page rejected: %v", err)
	}
}
