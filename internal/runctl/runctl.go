// Package runctl is the run-control layer shared by every Monte-Carlo
// engine in this repository (poolsim.SplitContext, syssim, burst, the
// trace replayer) and by the cmd/ binaries that drive them.
//
// The paper's headline numbers come from long rare-event campaigns —
// two-stage splitting over >50,000-disk systems — and a production-shape
// harness for those campaigns needs three properties the raw estimators
// do not provide on their own:
//
//  1. Cancellation and deadlines: every engine accepts a
//     context.Context and, on cancellation, drains in-flight trials and
//     returns a partial estimate (marked Partial, with honestly widened
//     confidence intervals) instead of nothing.
//
//  2. Panic containment: worker goroutines run under Pool/Guard, which
//     convert a panic into a typed *PanicError carrying the RNG stream
//     id of the offending trial, so one bad trajectory surfaces as an
//     error with a reproduction handle instead of killing the process.
//
//  3. Checkpoint/resume: estimator state (completed levels and their
//     tallies, per-stream cursors, entry snapshots) persists to a
//     versioned file at natural boundaries, and resuming from a
//     checkpoint is deterministic — same seed, resumed or uninterrupted,
//     identical final statistics.
//
// Resume is the one recovery path for a faulted worker. A worker is a
// pure function of its stream id, so re-running it in process would
// only repeat its fault; a killed job, a pre-empted one and a
// contained panic all end the same way — the run exits, and re-running
// the same command resumes from the last checkpoint.
//
// Run control reports through counters (saves, loads, fallbacks,
// workers started) and the runctl_pool_workers_live gauge, never through
// the trace: the trace records the simulation, so a checkpointed run
// writes the same trace as a plain one. A stalled campaign shows on the
// -progress line as a count that stops moving while workers stay live.
//
// The `barego` analyzer in internal/lint enforces that library code
// launches goroutines only through this package (or carries a reviewed
// //lint:allow directive), so panic containment is a machine-checked
// invariant rather than a convention.
package runctl

import (
	"fmt"
	"runtime/debug"

	"mlec/internal/obs"
)

// PanicError is a worker panic converted into an error. Stream
// identifies the RNG stream (derived seed, batch id, trajectory id …)
// the worker was processing, which is the reproduction handle: rerunning
// the same stream deterministically rebuilds the crash.
type PanicError struct {
	// Stream is the RNG stream / derived seed the worker was running.
	Stream int64
	// Value is the recovered panic value.
	Value any
	// Stack is the worker stack at the panic site.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runctl: worker panic on stream %d: %v", e.Stream, e.Value)
}

// Guard runs fn and converts a panic into a *PanicError carrying the
// stream id. It is the per-trial containment primitive; Pool applies it
// to whole workers automatically.
func Guard(stream int64, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Stream: stream, Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// live gauges worker goroutines currently running under any Pool, in
// the shared observability registry so panics and drains are visible
// next to every other signal. Tests assert it returns to zero after
// cancellation to prove the engines leak no goroutines.
var live = obs.Default.Gauge("runctl_pool_workers_live")

// Live returns the number of pool workers currently running,
// process-wide. It reads the runctl_pool_workers_live gauge of
// obs.Default.
func Live() int64 { return live.Value() }
