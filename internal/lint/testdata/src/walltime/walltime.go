// This fixture exercises the walltime analyzer. It declares package
// syssim — the analyzer restricts itself to the simulation packages by
// package name, which is exactly what lets a fixture opt in.
package syssim

import (
	"fmt"
	"os"
	"time"

	obs "mlec/internal/lint/testdata/src/obsfake"
)

type runStats struct {
	elapsedHours float64
	startedAt    time.Time
	samples      []float64
}

// StoreStart writes a wall-clock reading into simulation state.
func (s *runStats) StoreStart() {
	s.startedAt = time.Now() // want `wall-clock reading stored into simulation state`
}

// Accumulate folds host elapsed time into a statistic.
func (s *runStats) Accumulate(start time.Time) {
	s.elapsedHours += time.Since(start).Hours() // want `accumulated into simulation statistics`
}

// TimedRun stores host time into its statistics from a deferred
// closure on the way out.
func (s *runStats) TimedRun(steps int) {
	start := time.Now()
	defer func() { s.elapsedHours = time.Since(start).Hours() }() // want `wall-clock reading stored into simulation state`
	for i := 0; i < steps; i++ {
		s.samples = append(s.samples, float64(i))
	}
}

// Elapsed returns a wall-clock-derived duration from simulation code.
func Elapsed(start time.Time) float64 {
	return time.Since(start).Seconds() // want `wall-clock reading returned from simulation code`
}

// record stands in for any module-internal callee.
func record(d time.Duration) {}

// HandOff passes a wall-clock reading into module code.
func HandOff(start time.Time) {
	record(time.Since(start)) // want `wall-clock reading passed into`
}

// Progress is the legal pattern: wall time may drive stderr progress
// lines and deadline checks as long as it never lands in state.
func Progress(start time.Time, done, total int) {
	fmt.Fprintf(os.Stderr, "%d/%d after %v\n", done, total, time.Since(start))
	if time.Since(start) > time.Minute {
		fmt.Fprintln(os.Stderr, "slow run")
	}
}

// ObserveWall is the sanctioned sink: wall-clock durations may flow
// into any package named obs (write-only observability cells that
// simulation code never reads back), so neither call is reported even
// though both arguments are wall-clock tainted and both callees are
// module-internal.
func ObserveWall(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
	obs.RecordWall(time.Since(start))
}

// StampAllowed is a reviewed suppression: the stamp annotates a report
// header, not a statistic.
func (s *runStats) StampAllowed() {
	//lint:allow walltime report header stamp, not simulation state
	s.startedAt = time.Now()
}
