package runctl

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mlec/internal/obs"
)

// TestCheckpointCarriesCounters pins compatibility with checkpoints that
// still carry the counter snapshot older binaries embedded: such an
// envelope loads at version 1, and loading it moves no counter, so every
// count a run reports is that process's own work. A fresh save carries
// no snapshot at all.
func TestCheckpointCarriesCounters(t *testing.T) {
	// The counter is process-wide, so a repeated run (-count=n) starts
	// where the last one left it: every expectation is relative to it.
	const name = "runctl_test_ckpt_trials_total"
	path := filepath.Join(t.TempDir(), "state.ckpt")
	c := obs.Default.Counter(name)
	c.Add(7)
	live := c.Value()

	if err := SaveCheckpoint(path, "test.kind", "fp", map[string]int{"x": 1}); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	env := readEnvelope(t, path)
	if _, ok := env["counters"]; ok {
		t.Fatalf("a fresh save embeds a counter snapshot: %s", env["counters"])
	}

	// An envelope from an older binary, carrying a larger total.
	snapshot, err := json.Marshal(map[string]int64{name: live + 93})
	if err != nil {
		t.Fatal(err)
	}
	env["counters"] = snapshot
	writeEnvelope(t, path, env)
	var payload map[string]int
	ok, err := LoadCheckpoint(path, "test.kind", "fp", &payload)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if payload["x"] != 1 {
		t.Fatalf("payload = %v, want x=1", payload)
	}
	if got := c.Value(); got != live {
		t.Fatalf("loading a snapshot moved counter %s from %d to %d", name, live, got)
	}
}

// TestCheckpointWithoutCountersLoads pins backward compatibility: a
// pre-obs envelope (no counters field) loads without error.
func TestCheckpointWithoutCountersLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	raw, _ := json.Marshal(map[string]int{"x": 2})
	writeEnvelope(t, path, checkpointEnvelope{
		Version:     CheckpointVersion,
		Kind:        "test.kind",
		Fingerprint: "fp",
		Payload:     raw,
	})
	var payload map[string]int
	ok, err := LoadCheckpoint(path, "test.kind", "fp", &payload)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if payload["x"] != 2 {
		t.Fatalf("payload = %v, want x=2", payload)
	}
}

// TestCheckpointLeavesNoTraceEvent pins the trace as a record of the
// simulation alone: saves and a load that falls back a generation tick
// their counters and write nothing to a running trace, so -checkpoint
// leaves a fixed seed's trace as it was.
func TestCheckpointLeavesNoTraceEvent(t *testing.T) {
	saves := obs.Default.Counter("runctl_checkpoint_saves_total")
	fallbacks := obs.Default.Counter("runctl_checkpoint_fallback_loads_total")
	s0, f0 := saves.Value(), fallbacks.Value()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var trace bytes.Buffer
	if err := obs.Trace.Start(&trace); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obs.Trace.Stop() })
	for level := 1; level <= 2; level++ {
		if err := SaveCheckpoint(path, "test.kind", "fp", map[string]int{"level": level}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 4); err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if ok, err := LoadCheckpoint(path, "test.kind", "fp", &out); err != nil || !ok || out["level"] != 1 {
		t.Fatalf("fallback load: ok=%v err=%v payload=%v, want level 1", ok, err, out)
	}
	if err := obs.Trace.Stop(); err != nil {
		t.Fatal(err)
	}
	if d := saves.Value() - s0; d != 2 {
		t.Errorf("runctl_checkpoint_saves_total advanced by %d, want 2", d)
	}
	if d := fallbacks.Value() - f0; d != 1 {
		t.Errorf("runctl_checkpoint_fallback_loads_total advanced by %d, want 1", d)
	}
	if trace.Len() != 0 {
		t.Errorf("checkpoint saves and a fallback wrote to the trace:\n%s", trace.String())
	}
}

// readEnvelope decodes a checkpoint's envelope field by field, so a test
// sees every key the file carries.
func readEnvelope(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("gunzip checkpoint: %v", err)
	}
	defer zr.Close()
	var env map[string]json.RawMessage
	if err := json.NewDecoder(zr).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return env
}

func writeEnvelope(t *testing.T, path string, env any) {
	t.Helper()
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("marshal envelope: %v", err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create checkpoint: %v", err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(b); err != nil {
		t.Fatalf("write envelope: %v", err)
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("close gzip: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close file: %v", err)
	}
}
