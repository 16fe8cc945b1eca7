package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line of a Prometheus text exposition.
type PromSample struct {
	Series string // bare metric name
	Value  float64
}

// PromText is the parsed form of a Prometheus text page.
type PromText struct {
	Types   map[string]string // metric name -> declared type
	Samples []PromSample      // in page order
}

// ParsePrometheus parses (and thereby validates) the subset of the
// Prometheus text exposition format this package emits: `# TYPE` lines
// declaring a counter or gauge, optional `# HELP`/comment lines, and
// `name value` samples with bare metric names. It rejects other metric
// types, label blocks and other malformed names, unparseable values,
// duplicate series, and samples with no preceding # TYPE declaration —
// strict enough for make obs-smoke to catch format regressions.
func ParsePrometheus(rd io.Reader) (*PromText, error) {
	out := &PromText{Types: make(map[string]string)}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, kind := fields[2], fields[3]
				switch kind {
				case "counter", "gauge":
				default:
					return nil, fmt.Errorf("prom parse: line %d: unknown type %q", lineNo, kind)
				}
				if _, dup := out.Types[name]; dup {
					return nil, fmt.Errorf("prom parse: line %d: duplicate # TYPE for %s", lineNo, name)
				}
				out.Types[name] = kind
			}
			continue
		}
		series, val, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom parse: line %d: %w", lineNo, err)
		}
		if !validName(series) {
			return nil, fmt.Errorf("prom parse: line %d: malformed series %q", lineNo, series)
		}
		if out.Types[series] == "" {
			return nil, fmt.Errorf("prom parse: line %d: sample %s has no # TYPE", lineNo, series)
		}
		if seen[series] {
			return nil, fmt.Errorf("prom parse: line %d: duplicate series %s", lineNo, series)
		}
		seen[series] = true
		out.Samples = append(out.Samples, PromSample{Series: series, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom parse: %w", err)
	}
	return out, nil
}

// parsePromSample splits a sample line into its series and value.
func parsePromSample(line string) (string, float64, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", 0, fmt.Errorf("sample %q has no value", line)
	}
	// A third field would be a timestamp; this package never emits one
	// but the format allows it.
	val, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", 0, fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	return fields[0], val, nil
}

// Sample returns the value of the named series and whether it exists.
func (p *PromText) Sample(series string) (float64, bool) {
	for _, s := range p.Samples {
		if s.Series == series {
			return s.Value, true
		}
	}
	return 0, false
}
