package obs

import (
	"bytes"
	"fmt"
	"testing"
)

// hostileValues are label values chosen to break naive escaping: each
// contains a character that is structural in the text format (quote,
// backslash, newline, comma, closing brace) or has historically
// diverged between Go's %q escaping and the Prometheus wire encoding.
var hostileValues = []string{
	`back\slash`,
	`qu"ote`,
	"new\nline",
	`comma,inside`,
	`clos}ing`,
	`tab	and space`,
	`\"both\n`,
	`trailing\`,
}

func TestEscapeLabelValueRoundTrip(t *testing.T) {
	for _, v := range hostileValues {
		block := `{v="` + escapeLabelValue(v) + `"}`
		labels, rest, ok := scanLabelBlock(block)
		if !ok || rest != "" {
			t.Errorf("value %q: encoded block %q does not scan (ok=%v rest=%q)", v, block, ok, rest)
			continue
		}
		if len(labels) != 1 || labels[0].Value != v {
			t.Errorf("value %q round-tripped to %+v", v, labels)
		}
	}
}

// TestHostileLabelsRoundTrip is the regression test for the shared
// escaper: a registry of counters holding hostile label values must
// render a text page the strict parser accepts, every series carrying
// its counter's value and decoding back to the raw label value.
func TestHostileLabelsRoundTrip(t *testing.T) {
	r := NewRegistry()
	wantValue := map[string]float64{}
	for i, v := range hostileValues {
		name := fmt.Sprintf(`hostile_total{v="%s"}`, escapeLabelValue(v))
		r.Counter(name).Add(int64(i + 1))
		wantValue[name] = float64(i + 1)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("hostile-label page does not parse: %v\npage:\n%s", err, buf.String())
	}
	if len(p.Samples) != len(hostileValues) {
		t.Fatalf("parsed %d samples, want %d\npage:\n%s", len(p.Samples), len(hostileValues), buf.String())
	}

	for _, s := range p.Samples {
		want, ok := wantValue[s.Series]
		if !ok {
			t.Errorf("text series %q not among registered names", s.Series)
			continue
		}
		if s.Value != want {
			t.Errorf("series %q = %g, want %g", s.Series, s.Value, want)
		}
		// The parsed series must decode back to the original raw value.
		_, labels, ok := splitName(s.Series)
		if !ok || len(labels) != 1 {
			t.Errorf("series %q does not split", s.Series)
			continue
		}
		found := false
		for _, v := range hostileValues {
			if labels[0].Value == v {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("series %q decoded to unexpected value %q", s.Series, labels[0].Value)
		}
	}
}

// TestValidNameHostile pins which spellings the registry accepts: wire-
// escaped specials are valid, raw structural bytes are not.
func TestValidNameHostile(t *testing.T) {
	valid := []string{
		`m_total{v="a\\b"}`,
		`m_total{v="a\"b"}`,
		`m_total{v="a\nb"}`,
		`m_total{v="plain"}`,
	}
	for _, n := range valid {
		if !validName(n) {
			t.Errorf("validName(%q) = false, want true", n)
		}
	}
	invalid := []string{
		`m_total{v="a"b"}`,            // raw quote splits the value
		`m_total{v="a` + "\n" + `b"}`, // raw newline
		`m_total{v="a\qb"}`,           // unknown escape
		`m_total{v="unterminated}`,
		`m_total{v="a"}trailer`,
	}
	for _, n := range invalid {
		if validName(n) {
			t.Errorf("validName(%q) = true, want false", n)
		}
	}
}
