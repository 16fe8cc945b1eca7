package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Metric names follow the Prometheus grammar: a bare metric name
// (`syssim_events_total`) or a name with an inline label block
// (`faultinject_injected_total{kind="panic"}`). The full string is the
// registry key, so two label sets of the same base metric are two
// independent atomic cells — labelled hot-path updates stay lock-free.
//
// Label values are written in the Prometheus text-format wire encoding:
// `\\` for a backslash, `\"` for a quote, `\n` for a newline. splitName
// decodes them and formatLabels re-encodes through the one shared
// escaper, so the text exposition and the strict parser in promparse.go
// can never disagree about a hostile value.

// validName reports whether name is a bare metric name or a name with a
// well-formed label block.
func validName(name string) bool {
	base, labels, ok := splitName(name)
	if !ok || !validBareName(base) {
		return false
	}
	for _, l := range labels {
		if !validLabelName(l.Key) {
			return false
		}
	}
	return true
}

func mustValidName(name string) {
	if !validName(name) {
		//lint:allow nakedpanic metric names are compile-time instrumentation constants; a malformed one is a programmer error
		panic(fmt.Sprintf("obs: malformed metric name %q", name))
	}
}

// splitName splits a metric name into its base and parsed label pairs,
// decoding the wire escapes in label values. Bare names return an empty
// label slice.
func splitName(name string) (base string, labels []Label, ok bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, nil, true
	}
	base = name[:i]
	labels, rest, ok := scanLabelBlock(name[i:])
	if !ok || rest != "" {
		return "", nil, false
	}
	return base, labels, true
}

// scanLabelBlock parses a leading `{k="v",...}` block (label values in
// wire encoding, decoded here) and returns the parsed pairs plus
// whatever follows the closing brace. It is the single label-block
// scanner in the package: splitName and the exposition-format parser in
// promparse.go both delegate here, so a value that renders must re-parse.
func scanLabelBlock(s string) (labels []Label, rest string, ok bool) {
	if len(s) == 0 || s[0] != '{' {
		return nil, "", false
	}
	p := 1
	if p < len(s) && s[p] == '}' {
		return nil, s[p+1:], true
	}
	for {
		eq := strings.IndexByte(s[p:], '=')
		if eq < 0 {
			return nil, "", false
		}
		key := strings.TrimSpace(s[p : p+eq])
		p += eq + 1
		if p >= len(s) || s[p] != '"' {
			return nil, "", false
		}
		p++
		val, np, ok := scanQuotedValue(s, p)
		if !ok {
			return nil, "", false
		}
		p = np
		labels = append(labels, Label{Key: key, Value: val})
		if p >= len(s) {
			return nil, "", false
		}
		switch s[p] {
		case ',':
			p++
		case '}':
			return labels, s[p+1:], true
		default:
			return nil, "", false
		}
	}
}

// scanQuotedValue decodes a wire-encoded label value starting just past
// its opening quote at s[start], returning the decoded value and the
// index just past the closing quote. Raw newlines and unknown escapes
// are rejected — the encoder never produces them.
func scanQuotedValue(s string, start int) (val string, next int, ok bool) {
	var b strings.Builder
	for p := start; p < len(s); p++ {
		switch s[p] {
		case '"':
			return b.String(), p + 1, true
		case '\n':
			return "", 0, false
		case '\\':
			if p+1 >= len(s) {
				return "", 0, false
			}
			p++
			switch s[p] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, false
			}
		default:
			b.WriteByte(s[p])
		}
	}
	return "", 0, false
}

// escapeLabelValue encodes a label value for the text wire format, the
// one escaper formatLabels renders through.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Label is one key="value" pair of a metric name's label block. Value
// holds the decoded (unescaped) value.
type Label struct {
	Key   string
	Value string
}

func validBareName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for _, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// formatLabels renders label pairs as a canonical `{k="v",...}` block,
// keys sorted and values wire-escaped through escapeLabelValue; empty
// input renders as the empty string.
func formatLabels(labels []Label) string {
	all := append([]Label(nil), labels...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
