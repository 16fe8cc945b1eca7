package runctl

import (
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
