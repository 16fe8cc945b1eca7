package main

import (
	"strings"
	"testing"

	"mlec/internal/obs"
)

// TestEventSummaryKnowsEveryKind summarizes one event of every kind the
// tree emits, and each kind must surface with its description — no
// kind may fall through as unexplained.
func TestEventSummaryKnowsEveryKind(t *testing.T) {
	kinds := obs.KnownEventKinds()
	if len(kinds) == 0 {
		t.Fatal("obs reports no known event kinds")
	}
	var evs []obs.TraceEvent
	seq := uint64(0)
	for _, kv := range obs.SortedSnapshot(kinds) {
		seq++
		evs = append(evs, obs.TraceEvent{Seq: seq, T: float64(seq), Kind: kv.Key, Method: "R_ALL", Bytes: 10})
	}
	var out strings.Builder
	writeEventSummary(&out, evs)
	got := out.String()
	for kind, desc := range kinds {
		t.Run(kind, func(t *testing.T) {
			if !strings.Contains(got, kind) {
				t.Fatalf("summary omits kind %q:\n%s", kind, got)
			}
			if desc == "" {
				t.Fatalf("kind %q has no description", kind)
			}
			if !strings.Contains(got, desc) {
				t.Fatalf("summary lacks description %q for kind %q:\n%s", desc, kind, got)
			}
		})
	}
	if strings.Contains(got, "repair traffic by method:") != true {
		t.Errorf("repair traffic section missing:\n%s", got)
	}
}

func TestWriteSpanReport(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "campaign", BeginMS: 0, EndMS: 100},
		{ID: 2, Parent: 1, Name: "level", BeginMS: 5, EndMS: 60, Note: "level 1"},
		{ID: 3, Parent: 1, Name: "level", BeginMS: 60, EndMS: 95},
		{ID: 4, Parent: 2, Name: "stream", BeginMS: 6, EndMS: 50},
		{ID: 5, Parent: 9, Name: "orphan", BeginMS: 1, EndMS: 2}, // parent never ended
	}
	var out strings.Builder
	writeSpanReport(&out, recs)
	got := out.String()
	for _, want := range []string{
		"spans: 5",
		"span tree:",
		"campaign",
		"level",
		"stream",
		"orphan", // orphans surface as roots, never vanish
		"wall time by phase:",
		"critical path:",
		"level 1", // notes render in the tree
	} {
		if !strings.Contains(got, want) {
			t.Errorf("span report lacks %q:\n%s", want, got)
		}
	}
	// Rollup aggregates the two "level" spans: 55ms + 35ms = 90ms.
	if !strings.Contains(got, "n=2") {
		t.Errorf("rollup does not aggregate repeated phase names:\n%s", got)
	}
	// Critical path descends campaign -> longest level (55ms) -> stream.
	idx := strings.Index(got, "critical path:")
	tail := got[idx:]
	for _, name := range []string{"campaign", "level", "stream"} {
		j := strings.Index(tail, name)
		if j < 0 {
			t.Fatalf("critical path lacks %s:\n%s", name, tail)
		}
		tail = tail[j+len(name):]
	}
}

func TestWriteSpanReportEmpty(t *testing.T) {
	var out strings.Builder
	writeSpanReport(&out, nil)
	if !strings.Contains(out.String(), "no spans") {
		t.Fatalf("empty report = %q", out.String())
	}
}
