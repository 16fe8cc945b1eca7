package runctl

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mlec/internal/obs"
)

// TestCheckpointCarriesCounters proves the satellite contract: a saved
// checkpoint embeds the observability counter snapshot, and loading one
// written by an earlier process restores cumulative counts.
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
	if got := env.Counters[name]; got != live {
		t.Fatalf("saved counter snapshot has %s=%d, want the live %d", name, got, live)
	}

	// A checkpoint from a previous process carries a larger total; the
	// load must raise the live counter to it.
	raised := live + 93
	env.Counters[name] = raised
	writeEnvelope(t, path, env)
	var payload map[string]int
	ok, err := LoadCheckpoint(path, "test.kind", "fp", &payload)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if got := c.Value(); got != raised {
		t.Fatalf("after resume counter %s=%d, want cumulative %d", name, got, raised)
	}

	// A same-process resume, where the live counter already advanced
	// past the snapshot, must not move it backwards or double-count.
	env.Counters[name] = live
	writeEnvelope(t, path, env)
	if ok, err := LoadCheckpoint(path, "test.kind", "fp", &payload); err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if got := c.Value(); got != raised {
		t.Fatalf("merge lowered counter %s to %d, want floor at %d", name, got, raised)
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

func readEnvelope(t *testing.T, path string) checkpointEnvelope {
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
	var env checkpointEnvelope
	if err := json.NewDecoder(zr).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return env
}

func writeEnvelope(t *testing.T, path string, env checkpointEnvelope) {
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
