package syssim

import (
	"context"
	"testing"
	"time"

	"mlec/internal/placement"
	"mlec/internal/repair"
)

func smallRunCfg() Config {
	return hotSystem(placement.SchemeCC, repair.RMin, 0.5)
}

func TestRunContextCancelReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := RunContext(ctx, smallRunCfg(), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partial {
		t.Error("cancelled run not marked Partial")
	}
	if stats.SimYears >= 100 {
		t.Errorf("cancelled run claims %g simulated years", stats.SimYears)
	}
}

// TestRunContextDeadlineStopsHonestly: a deadline mid-run yields the
// span actually simulated, not the requested horizon.
func TestRunContextDeadlineStopsHonestly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	stats, err := RunContext(ctx, smallRunCfg(), 1e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partial {
		t.Skip("machine fast enough to finish 1e6 years in 50ms; nothing to assert")
	}
	if stats.SimYears >= 1e6 {
		t.Errorf("partial run claims the full %g-year horizon", stats.SimYears)
	}
}

func TestRunContextUncancelledMatchesRun(t *testing.T) {
	a, err := RunContext(context.Background(), smallRunCfg(), 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), smallRunCfg(), 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("RunContext diverged from Run:\n%+v\n%+v", a, b)
	}
}
