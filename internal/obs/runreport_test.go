package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

func TestFingerprintIgnoresObsFlags(t *testing.T) {
	campaign := []string{"-seed", "42", "-pools", "16", "-hours", "1000"}
	base := FingerprintArgs(campaign)
	if base == "" || len(base) != 16 {
		t.Fatalf("fingerprint = %q, want 16 hex chars", base)
	}
	instrumented := [][]string{
		append(append([]string{}, campaign...), "-obs", "127.0.0.1:0"),
		append(append([]string{}, campaign...), "-trace-out", "/tmp/t.jsonl", "-span-out", "/tmp/s.jsonl"),
		append(append([]string{}, campaign...), "-run-report=/tmp/r.json", "-profile-dir=/tmp/prof"),
		append([]string{"-progress", "25ms"}, campaign...),
		append([]string{"--obs=127.0.0.1:0"}, campaign...),
	}
	for _, args := range instrumented {
		if got := FingerprintArgs(args); got != base {
			t.Errorf("args %v fingerprint %s, want %s (obs flags must not steer identity)", args, got, base)
		}
	}
	// Campaign-defining flags DO change the fingerprint.
	if got := FingerprintArgs([]string{"-seed", "43", "-pools", "16", "-hours", "1000"}); got == base {
		t.Error("different seed produced identical fingerprint")
	}
}

func TestBuildRunReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("syssim_events_total").Add(1000)
	r.Counter("burst_pdl_trials_total").Add(500)
	r.Counter("runctl_checkpoint_saves_total").Add(3)
	r.Counter("runctl_stream_retries_total").Add(2)

	args := []string{"-seed", "7", "-run-report", "/tmp/r.json"}
	rep := BuildRunReport("mlecdur", args, 7, 1500*time.Millisecond, r)
	if rep.Schema != RunReportSchema || rep.Tool != "mlecdur" || rep.Seed != 7 {
		t.Fatalf("report identity %+v", rep)
	}
	if rep.ConfigFingerprint != FingerprintArgs(args) {
		t.Fatal("fingerprint mismatch")
	}
	if rep.WallSeconds != 1.5 {
		t.Fatalf("WallSeconds = %g", rep.WallSeconds)
	}
	if rep.EventsSimulated != 1500 {
		t.Fatalf("EventsSimulated = %d, want 1500 (sum of engine event counters)", rep.EventsSimulated)
	}
	if rep.Counters["runctl_checkpoint_saves_total"] != 3 || rep.Counters["runctl_stream_retries_total"] != 2 {
		t.Fatalf("counters %v", rep.Counters)
	}
	if rep.PeakHeapBytes == 0 || rep.GoVersion == "" {
		t.Fatalf("runtime fields missing: %+v", rep)
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("syssim_events_total").Add(10)
	r.Counter("runctl_stream_heals_total").Add(4)
	rep := BuildRunReport("mlecburst", []string{"-seed", "1"}, 1, time.Second, r)
	path := t.TempDir() + "/RUNREPORT.json"
	if err := WriteRunReport(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRunReport(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("own report does not parse: %v", err)
	}
	if got.Schema != "mlec-run-report/v2" {
		t.Fatalf("schema %q, want mlec-run-report/v2", got.Schema)
	}
	if got.Tool != rep.Tool || got.EventsSimulated != rep.EventsSimulated ||
		got.ConfigFingerprint != rep.ConfigFingerprint ||
		got.Counters["runctl_stream_heals_total"] != 4 {
		t.Fatalf("round trip lost fields: %+v vs %+v", got, rep)
	}
}

func TestParseRunReportRejects(t *testing.T) {
	const v2 = `{"schema":"mlec-run-report/v2","tool":"x","args":[],"config_fingerprint":"a","seed":1,"go_version":"go","goos":"linux","goarch":"amd64","wall_seconds":1,"events_simulated":0,"peak_heap_bytes":1,"total_alloc_bytes":1,"num_gc":0,"counters":{}}`
	if _, err := ParseRunReport(strings.NewReader(v2)); err != nil {
		t.Fatalf("valid v2 document rejected: %v", err)
	}
	cases := map[string]string{
		// A v1 document, even one using only fields v2 kept, is refused
		// on its schema alone.
		"v1 schema":     strings.Replace(v2, "/v2", "/v1", 1),
		"v1 fields":     `{"schema":"mlec-run-report/v1","tool":"x","args":[],"config_fingerprint":"a","seed":1,"go_version":"go","goos":"linux","goarch":"amd64","wall_seconds":1,"events_simulated":0,"peak_events_per_sec":0,"peak_heap_bytes":1,"total_alloc_bytes":1,"num_gc":0,"checkpoint_saves":0,"checkpoint_loads":0,"stream_retries":0,"stream_heals":0,"counters":{}}`,
		"missing tool":  strings.Replace(v2, `"tool":"x"`, `"tool":""`, 1),
		"unknown field": `{"schema":"mlec-run-report/v2","tool":"x","bogus":1}`,
		"not json":      `banana`,
	}
	for name, doc := range cases {
		if _, err := ParseRunReport(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parser accepted %q", name, doc)
		}
	}
}
