package syssim

import (
	"context"
	"math"
	"testing"

	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
	"mlec/internal/splitting"
)

// TestSplittingCompositionEndToEnd is the capstone cross-validation: on a
// configuration hot enough to observe data loss directly, the full-system
// simulator's measured loss-event rate must agree with the two-stage
// splitting composition (stage 1 from poolsim.SplitContext on the same pool
// geometry, stage 2 from the analytic overlap model) within an order of
// magnitude — the same mutual-verification discipline the paper describes
// in §6.2.
func TestSplittingCompositionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation in -short mode")
	}
	cfg := hotSystem(placement.SchemeDD, repair.RAll, 0.7)

	// Direct measurement.
	years := 6000.0
	stats, err := RunContext(context.Background(), cfg, years, 21)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLossEvents < 20 {
		t.Fatalf("only %d loss events; config too cold to validate", stats.DataLossEvents)
	}
	measured := float64(stats.DataLossEvents) / (years * failure.HoursPerYear)
	measuredCat := float64(stats.CatastrophicEvents) / (years * failure.HoursPerYear)

	// Stage 1: splitting estimator on the same pool geometry.
	pc := poolsim.Config{
		Disks: cfg.Topo.DisksPerEnclosure, Width: cfg.Params.LocalWidth(),
		Parity: cfg.Params.PL, Clustered: false,
		SegmentsPerDisk:     cfg.SegmentsPerDisk,
		DiskCapacityBytes:   cfg.Topo.DiskCapacityBytes,
		DiskRepairBW:        cfg.Topo.DiskRepairBandwidth(),
		DetectionDelayHours: failure.DefaultDetectionDelayHours,
	}
	ttf := failure.MustExponentialAFR(0.7)
	split, err := poolsim.SplitContext(context.Background(), pc, ttf, poolsim.SplitConfig{TrajectoriesPerLevel: 20000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pools := 6 // one pool per rack in the hot config
	splitCatSystem := split.CatRatePerPoolHour * float64(pools)
	catRatio := measuredCat / splitCatSystem
	t.Logf("catastrophic rate: syssim %.3g/h vs splitting %.3g/h (ratio %.2f)",
		measuredCat, splitCatSystem, catRatio)
	if catRatio < 0.25 || catRatio > 4 {
		t.Errorf("stage-1 rates disagree: ratio %.2f", catRatio)
	}

	// Stage 2: compose and compare the loss rate.
	l, err := placement.NewLayout(cfg.Topo, cfg.Params, cfg.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	s1 := splitting.Stage1FromSplit(pc, split)
	dur, err := splitting.Durability(l, repair.RAll, s1)
	if err != nil {
		t.Fatal(err)
	}
	lr := math.Log10(measured / dur.LossRatePerHour)
	t.Logf("loss rate: syssim %.3g/h vs composition %.3g/h (Δ %.2f orders)",
		measured, dur.LossRatePerHour, lr)
	if math.Abs(lr) > 1.3 {
		t.Errorf("end-to-end composition off by %.2f orders of magnitude", lr)
	}
}
