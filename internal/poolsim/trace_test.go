package poolsim

import (
	"context"
	"testing"

	"mlec/internal/failure"
)

func TestReplayTraceBasics(t *testing.T) {
	cfg := hotConfig(true)
	// A scripted catastrophic burst: pl+1 = 3 failures within an hour.
	trace := &failure.Trace{Events: []failure.Event{
		{Disk: 0, TimeHours: 10},
		{Disk: 1, TimeHours: 10.2},
		{Disk: 2, TimeHours: 10.4},
		{Disk: 3, TimeHours: 5000},
	}}
	stats, err := ReplayTraceContext(context.Background(), cfg, trace, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CatastrophicCount != 1 {
		t.Fatalf("catastrophic events %d, want 1", stats.CatastrophicCount)
	}
	if stats.DiskFailures != 4 {
		t.Fatalf("disk failures %d, want 4", stats.DiskFailures)
	}
	if len(stats.Samples) != 1 || stats.Samples[0].FailedDisks != 3 {
		t.Fatalf("bad catastrophe sample: %+v", stats.Samples)
	}
	// Horizon extends to cover the last event.
	if stats.SimYears*failure.HoursPerYear < 5000 {
		t.Fatalf("horizon %.0f h too short", stats.SimYears*failure.HoursPerYear)
	}
}

func TestReplayTraceSpacedFailuresHarmless(t *testing.T) {
	cfg := hotConfig(true)
	// Failures far apart: each repairs before the next — never
	// catastrophic.
	trace := &failure.Trace{Events: []failure.Event{
		{Disk: 0, TimeHours: 100},
		{Disk: 1, TimeHours: 1000},
		{Disk: 2, TimeHours: 2000},
	}}
	stats, err := ReplayTraceContext(context.Background(), cfg, trace, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CatastrophicCount != 0 {
		t.Fatalf("catastrophic events %d, want 0", stats.CatastrophicCount)
	}
}

func TestReplayTraceGeneratedMatchesLongRun(t *testing.T) {
	// A generated exponential trace replayed through ReplayTrace should
	// produce a catastrophic rate comparable to LongRun at the same AFR.
	cfg := hotConfig(true)
	ttf := failure.MustExponentialAFR(0.8)
	years := 6000.0
	trace := failure.GenerateTrace(cfg.Disks, years, ttf, 31)
	replay, err := ReplayTraceContext(context.Background(), cfg, trace, years, 31)
	if err != nil {
		t.Fatal(err)
	}
	long, err := LongRunContext(context.Background(), cfg, ttf, years, 33)
	if err != nil {
		t.Fatal(err)
	}
	if replay.CatastrophicCount < 20 || long.CatastrophicCount < 20 {
		t.Fatalf("too few events to compare: replay %d, long %d",
			replay.CatastrophicCount, long.CatastrophicCount)
	}
	ratio := replay.CatRatePerPoolHour() / long.CatRatePerPoolHour()
	t.Logf("replay %d vs longrun %d events (ratio %.2f)",
		replay.CatastrophicCount, long.CatastrophicCount, ratio)
	// The replay drops re-failures of busy disks (trace semantics), so
	// allow a broad band.
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("trace replay rate diverges from long run: %.2f", ratio)
	}
}

func TestReplayTraceValidation(t *testing.T) {
	cfg := hotConfig(true)
	bad := &failure.Trace{Events: []failure.Event{{Disk: 99, TimeHours: 1}}}
	if _, err := ReplayTraceContext(context.Background(), cfg, bad, 1, 1); err == nil {
		t.Error("out-of-range disk accepted")
	}
	unsorted := &failure.Trace{Events: []failure.Event{
		{Disk: 0, TimeHours: 10}, {Disk: 1, TimeHours: 5},
	}}
	if _, err := ReplayTraceContext(context.Background(), cfg, unsorted, 1, 1); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestLongRunWeibull(t *testing.T) {
	// The long-run simulator accepts any TTF distribution; Weibull
	// wearout (shape > 1) should produce failures like exponential.
	cfg := hotConfig(true)
	w := failure.Weibull{Shape: 1.5, ScaleHours: 10000}
	stats, err := LongRunContext(context.Background(), cfg, w, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskFailures == 0 {
		t.Fatal("Weibull run produced no failures")
	}
}
