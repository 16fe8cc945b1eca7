package runctl

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mlec/internal/obs"
)

// beats counts coarse units of worker progress (one per finished pool
// worker). The watchdog compares successive readings: live workers
// plus a frozen beat count is the signature of a stall — a deadlocked
// estimator, a worker stuck in an unbounded loop — the one failure
// mode that neither ends the run nor leaves an error to report.
var beats atomic.Int64

// Beat records one unit of worker progress for the stall watchdog.
// Pool ticks it automatically when a worker returns; long-running
// hand-rolled workers may call it directly.
func Beat() { beats.Add(1) }

// StartWatchdog launches the stall watchdog: every interval it checks
// whether pool workers are live yet no Beat has landed since the last
// check, and if so ticks runctl_stall_watchdog_trips_total, emits a
// stall trace event, and warns on errw (nil for silent). It never kills
// the run — a stalled campaign under a -timeout still dies at its
// deadline; the watchdog's job is to say *why* on the way down.
//
// Intervals ≤ 0 disable the watchdog. The returned stop function is
// idempotent and joins the watchdog goroutine: once it returns, no trip
// is counted and nothing is written to errw. Defer it next to the
// CLIContext stop. Trips are
// wall-clock driven and so excluded from the determinism contract —
// a healthy fixed-seed run never trips, and trace files from runs that
// did are diagnostics, not artifacts.
func StartWatchdog(interval time.Duration, errw io.Writer) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	var once sync.Once
	// runctl is the sanctioned goroutine layer (see barego), and the
	// ticker is legal here: walltime restricts simulation packages, not
	// run control.
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		last := beats.Load()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				cur := beats.Load()
				if n := Live(); cur == last && n > 0 {
					obs.Default.Counter("runctl_stall_watchdog_trips_total").Inc()
					obs.Trace.Emit(obs.TraceEvent{
						Kind: obs.EvStall,
						Note: fmt.Sprintf("%d worker(s) live, no progress in %v", n, interval),
					})
					if errw != nil {
						fmt.Fprintf(errw, "runctl: watchdog: %d worker(s) live with no progress in %v\n", n, interval)
					}
				}
				last = cur
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
