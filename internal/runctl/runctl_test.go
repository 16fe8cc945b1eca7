package runctl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGuardConvertsPanic(t *testing.T) {
	err := Guard(42, func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Guard returned %v, want *PanicError", err)
	}
	if pe.Stream != 42 {
		t.Errorf("Stream = %d, want 42", pe.Stream)
	}
	if !strings.Contains(pe.Error(), "stream 42") || !strings.Contains(pe.Error(), "boom") {
		t.Errorf("message %q lacks stream id or panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if err := Guard(1, func() error { return nil }); err != nil {
		t.Errorf("clean Guard returned %v", err)
	}
	want := errors.New("bad trial")
	if err := Guard(1, func() error { return want }); err != want {
		t.Errorf("Guard of a failing fn returned %v, want its error", err)
	}
}

func TestPoolContainsWorkerPanic(t *testing.T) {
	p := NewPool(context.Background())
	for w := 0; w < 4; w++ {
		w := w
		p.Go(int64(100+w), func(context.Context) error {
			if w == 2 {
				panic(fmt.Sprintf("worker %d dies", w))
			}
			return nil
		})
	}
	err := p.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait returned %v, want *PanicError", err)
	}
	if pe.Stream != 102 {
		t.Errorf("Stream = %d, want 102 (the panicking worker's stream)", pe.Stream)
	}
	if Live() != 0 {
		t.Errorf("Live() = %d after Wait, want 0", Live())
	}
}

func TestPoolReturnsWorkerError(t *testing.T) {
	p := NewPool(context.Background())
	want := errors.New("bad trial")
	p.Go(1, func(context.Context) error { return want })
	p.Go(2, func(context.Context) error { return nil })
	if err := p.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait = %v, want %v", err, want)
	}
}

// TestPoolKeepsOneOfConcurrentFailures fails every worker at once, after
// all are launched, so their failures reach the pool's error slot
// concurrently: Wait must report the first-launched worker's. Under
// -race this is the slot's data-race certificate.
func TestPoolKeepsOneOfConcurrentFailures(t *testing.T) {
	const workers = 8
	p := NewPool(context.Background())
	start := make(chan struct{})
	var first error
	for w := 0; w < workers; w++ {
		err := fmt.Errorf("worker %d failed", w)
		if w == 0 {
			first = err
		}
		p.Go(int64(w), func(context.Context) error {
			<-start
			return err
		})
	}
	close(start)
	if err := p.Wait(); err != first {
		t.Fatalf("Wait = %v, want %v", err, first)
	}
}

func TestPoolGracefulCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx)
	started := make(chan struct{})
	p.Go(7, func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // a draining worker sees cancellation and returns nil
		return nil
	})
	<-started
	cancel()
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait after graceful cancel = %v, want nil", err)
	}
	if Live() != 0 {
		t.Errorf("Live() = %d, want 0", Live())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	type state struct {
		Level   int       `json:"level"`
		Tallies []float64 `json:"tallies"`
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")

	var missing state
	ok, err := LoadCheckpoint(path, "test.kind", "fp1", &missing)
	if err != nil || ok {
		t.Fatalf("LoadCheckpoint(absent) = %v, %v; want false, nil", ok, err)
	}

	in := state{Level: 3, Tallies: []float64{0.25, 1e-9, 0.125}}
	if err := SaveCheckpoint(path, "test.kind", "fp1", in); err != nil {
		t.Fatal(err)
	}
	var out state
	ok, err = LoadCheckpoint(path, "test.kind", "fp1", &out)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint = %v, %v", ok, err)
	}
	if out.Level != in.Level || len(out.Tallies) != 3 || out.Tallies[1] != 1e-9 {
		t.Errorf("round trip mangled state: %+v", out)
	}

	// Overwrite must be atomic and reflect the newest state.
	in.Level = 4
	if err := SaveCheckpoint(path, "test.kind", "fp1", in); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, "test.kind", "fp1", &out); err != nil || out.Level != 4 {
		t.Fatalf("overwrite: level %d err %v", out.Level, err)
	}

	// Mismatches are loud, not silent restarts.
	if _, err := LoadCheckpoint(path, "other.kind", "fp1", &out); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := LoadCheckpoint(path, "test.kind", "fp2", &out); err == nil {
		t.Error("fingerprint mismatch accepted")
	}

	// Two saves happened, so a previous-good generation exists:
	// corrupting the newest file falls back to it (level 3, the
	// first save) instead of failing the resume.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err = LoadCheckpoint(path, "test.kind", "fp1", &out)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint(corrupt newest, good previous) = %v, %v; want fallback", ok, err)
	}
	if out.Level != 3 {
		t.Errorf("fallback loaded level %d, want 3 (the rotated generation)", out.Level)
	}

	// With no generation left to fall back to, corruption is a hard
	// typed error, not a fresh start.
	if err := os.Remove(PrevCheckpointPath(path)); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(path, "test.kind", "fp1", &out)
	var ce *CorruptCheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("LoadCheckpoint(corrupt, no fallback) = %v, want *CorruptCheckpointError", err)
	}
	if ce.Path != path || ce.Generation != 0 || ce.Cause == nil {
		t.Errorf("CorruptCheckpointError fields = %+v", ce)
	}
}

func TestCLIContextDeadline(t *testing.T) {
	ctx, stop := CLIContext(time.Millisecond)
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline context never expired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Errorf("ctx.Err() = %v", ctx.Err())
	}
	stop()
	stop() // stop must be idempotent
}
