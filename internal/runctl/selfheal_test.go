package runctl

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlec/internal/faultinject"
	"mlec/internal/obs"
)

// TestPoolRunsFailedStreamOnce pins the one-recovery-path contract: a
// worker that returns an error runs exactly once, and Wait returns that
// error.
func TestPoolRunsFailedStreamOnce(t *testing.T) {
	want := errors.New("bad trajectory")
	var runs atomic.Int64
	p := NewPool(context.Background())
	p.Go(55, func(context.Context) error {
		runs.Add(1)
		return want
	})
	if err := p.Wait(); err != want {
		t.Fatalf("Wait = %v, want %v", err, want)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("failing worker ran %d times, want 1", n)
	}
}

// TestPoolRunsPanickingStreamOnce: a worker that panics runs exactly
// once too, and Wait returns a typed *PanicError naming the stream that
// reproduces it.
func TestPoolRunsPanickingStreamOnce(t *testing.T) {
	var runs atomic.Int64
	p := NewPool(context.Background())
	p.Go(66, func(context.Context) error {
		runs.Add(1)
		panic("always dies")
	})
	var pe *PanicError
	if err := p.Wait(); !errors.As(err, &pe) || pe.Stream != 66 {
		t.Fatalf("Wait = %v, want *PanicError on stream 66", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("panicking worker ran %d times, want 1", n)
	}
}

// TestPoolNoRetryAfterCancel pins "cancellation means stop": a failure
// observed after the pool context is cancelled is still recorded, and
// the worker runs once.
func TestPoolNoRetryAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var attempts atomic.Int64
	p := NewPool(ctx)
	p.Go(5, func(context.Context) error {
		attempts.Add(1)
		return errors.New("failed during drain")
	})
	if err := p.Wait(); err == nil {
		t.Fatal("drain failure vanished")
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("worker ran %d times after cancellation, want 1", n)
	}
}

// TestPoolSurfacesInjectedFault closes the loop with the chaos harness:
// an injected panic is contained, not re-run, and reaches Wait as a
// *PanicError whose value is the typed injection on the same stream.
func TestPoolSurfacesInjectedFault(t *testing.T) {
	plan, err := faultinject.Parse("test.pool.worker:panic:nth=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	var runs atomic.Int64
	p := NewPool(context.Background())
	p.Go(9, func(context.Context) error {
		runs.Add(1)
		return faultinject.Fire("test.pool.worker", 9)
	})
	err = p.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stream != 9 {
		t.Fatalf("Wait = %v, want *PanicError on stream 9", err)
	}
	if ie, ok := pe.Value.(*faultinject.InjectedError); !ok || ie.Stream != 9 {
		t.Errorf("panic value %v, want the injected fault on stream 9", pe.Value)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("worker ran %d times, want 1", n)
	}
}

// TestPoolReportsEarliestLaunchedFailure: when several workers fail,
// Wait names the one whose Go call came first, whatever order they
// failed in. The later-launched worker is made to fail first; the
// earlier one fails only once that worker has returned and left the
// live gauge, so its failure is already recorded.
func TestPoolReportsEarliestLaunchedFailure(t *testing.T) {
	laterFailed := make(chan struct{})
	var once sync.Once
	p := NewPool(context.Background())
	p.Go(1, func(context.Context) error {
		<-laterFailed
		for deadline := time.Now().Add(5 * time.Second); Live() > 1 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		return errors.New("stream 1 failed")
	})
	p.Go(2, func(context.Context) error {
		defer once.Do(func() { close(laterFailed) })
		panic("stream 2 dies first")
	})
	err := p.Wait()
	if err == nil || err.Error() != "stream 1 failed" {
		t.Fatalf("Wait = %v, want the failure of stream 1, launched first", err)
	}
}

// TestFailedSaveKeepsLastGeneration pins the one recovery path for a
// failed checkpoint save: the save runs once and fails, counts no save,
// leaves no temp file behind, and the last committed generation still
// loads — which is what lets the CLI tell the user to re-run and resume.
func TestFailedSaveKeepsLastGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	type state struct{ N int }
	if err := SaveCheckpoint(path, "test.kind", "fp", state{N: 1}); err != nil {
		t.Fatal(err)
	}

	plan, err := faultinject.Parse("runctl.checkpoint.write:writeerr:nth=1,bytes=3")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()
	saves := obs.Default.Counter("runctl_checkpoint_saves_total")
	s0 := saves.Value()
	if err := SaveCheckpoint(path, "test.kind", "fp", state{N: 2}); err == nil {
		t.Fatal("SaveCheckpoint under a torn write succeeded, want it to fail once")
	}
	if d := saves.Value() - s0; d != 0 {
		t.Errorf("a failed save counted as %d saves", d)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("the failed save leaked temp files: %v", tmps)
	}
	var out state
	if ok, err := LoadCheckpoint(path, "test.kind", "fp", &out); err != nil || !ok || out.N != 1 {
		t.Fatalf("reload after the failed save: ok=%v err=%v out=%+v, want the committed N=1", ok, err, out)
	}
}

// TestFailedSaveReturnsCheckpointSaveError pins the error a failed save
// surfaces, the type cli.Fail keys its resume hint on: an injected torn
// write comes back as a *CheckpointSaveError wrapping the injected
// fault, and a real IO failure (the checkpoint directory is a file)
// takes the same type.
func TestFailedSaveReturnsCheckpointSaveError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	type state struct{ N int }
	plan, err := faultinject.Parse("runctl.checkpoint.write:writeerr:nth=1,bytes=3")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	err = SaveCheckpoint(path, "test.kind", "fp", state{N: 1})
	faultinject.Disable()
	var se *CheckpointSaveError
	var ie *faultinject.InjectedError
	if !errors.As(err, &se) || !errors.As(err, &ie) {
		t.Fatalf("SaveCheckpoint under a torn write = %v, want a *CheckpointSaveError wrapping the injected fault", err)
	}

	if err := SaveCheckpoint(path, "test.kind", "fp", state{N: 2}); err != nil {
		t.Fatal(err)
	}
	err = SaveCheckpoint(filepath.Join(path, "nested.ckpt"), "test.kind", "fp", state{N: 3})
	if !errors.As(err, &se) {
		t.Fatalf("SaveCheckpoint under a file named as its directory = %v, want a *CheckpointSaveError", err)
	}
	if errors.As(err, &ie) {
		t.Errorf("a real IO failure = %v, claims to be injected", err)
	}
}
