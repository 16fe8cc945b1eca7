package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestActivateFailureWritesNoReport: an Activate that fails on a later
// flag has recorded no run, so it must not leave a run report (or a
// heap profile) behind, and must release the recorders it had opened.
func TestActivateFailureWritesNoReport(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]CLIFlags{
		"span path":     {SpanOut: filepath.Join(dir, "nodir", "s.jsonl")},
		"endpoint":      {Endpoint: "127.0.0.1:99999"},
		"after profile": {ProfileDir: filepath.Join(dir, "prof"), Endpoint: "127.0.0.1:99999"},
		"after trace":   {TraceOut: filepath.Join(dir, "t.jsonl"), SpanOut: filepath.Join(dir, "nodir", "s.jsonl")},
	}
	for name, f := range cases {
		f.tool = "mlectest"
		f.RunReport = filepath.Join(dir, name+".json")
		var errw bytes.Buffer
		if _, err := f.Activate(&errw); err == nil {
			t.Fatalf("%s: Activate succeeded", name)
		}
		if _, err := os.Stat(f.RunReport); !os.IsNotExist(err) {
			t.Errorf("%s: failed Activate left a run report (stat err %v)", name, err)
		}
		if f.ProfileDir != "" {
			if _, err := os.Stat(filepath.Join(f.ProfileDir, "heap.pprof")); !os.IsNotExist(err) {
				t.Errorf("%s: failed Activate wrote a heap profile", name)
			}
		}
		if Trace.Enabled() || Spans.Enabled() {
			t.Errorf("%s: failed Activate left a recorder running", name)
		}
	}

	// The same flags minus the failing one do record the run, once.
	f := CLIFlags{tool: "mlectest", RunReport: filepath.Join(dir, "ok.json")}
	stop, err := f.Activate(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := os.Stat(f.RunReport); err != nil {
		t.Fatalf("successful run left no report: %v", err)
	}
	if err := os.Remove(f.RunReport); err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := os.Stat(f.RunReport); !os.IsNotExist(err) {
		t.Error("a second stop wrote the report again")
	}
}
