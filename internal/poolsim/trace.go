package poolsim

import (
	"context"
	"fmt"

	"mlec/internal/failure"
)

// ReplayTrace drives one pool with a recorded failure trace instead of a
// sampled distribution (§3: "simulating disk failures based on
// distributions, rules, or real traces"). Trace events whose disk is
// already failed when their time arrives are dropped, mirroring how an
// operational trace can only report failures of disks that were in
// service.
//
// The returned stats cover the span of the trace (or `years` if longer).
// ReplayTrace is ReplayTraceContext without cancellation.
func ReplayTrace(cfg Config, trace *failure.Trace, years float64, seed int64) (RunStats, error) {
	return ReplayTraceContext(context.Background(), cfg, trace, years, seed)
}

// ReplayTraceContext is ReplayTrace under run control: on cancellation
// or deadline the replay stops at the next event boundary and returns
// statistics over the replayed span, marked Partial.
func ReplayTraceContext(ctx context.Context, cfg Config, trace *failure.Trace, years float64, seed int64) (RunStats, error) {
	pool, err := NewPool(cfg, seed)
	if err != nil {
		return RunStats{}, err
	}
	if !trace.Sorted() {
		return RunStats{}, fmt.Errorf("poolsim: trace not time-sorted")
	}
	horizon := years * failure.HoursPerYear
	if n := len(trace.Events); n > 0 {
		if last := trace.Events[n-1].TimeHours; last > horizon {
			horizon = last
		}
	}

	// Failures come from the trace, not from per-disk clocks: repaired
	// disks get no new clock (no OnHealed), and the driver draws nothing.
	dr := newDriver(pool, nil, nil)
	dr.m.OnCat = func() {
		dr.recordCatastrophe()
		dr.m.HealAll()
	}
	for _, ev := range trace.Events {
		if ev.Disk < 0 || ev.Disk >= cfg.Disks {
			return RunStats{}, fmt.Errorf("poolsim: trace disk %d out of range [0,%d)", ev.Disk, cfg.Disks)
		}
		dr.m.eng.Schedule(ev.TimeHours, func() {
			// A trace may report a disk that is still under repair
			// from a previous event; skip — it cannot fail twice.
			if pool.DiskState(ev.Disk) != int(diskHealthy) {
				return
			}
			dr.fail(ev.Disk)
		})
	}
	return dr.run(ctx, horizon, horizon/failure.HoursPerYear), nil
}
