package poolsim

import (
	"testing"

	"mlec/internal/failure"
	"mlec/internal/sim"
)

// hotConfig is a small pool with failure and repair rates tuned so
// catastrophic events are frequent enough for brute-force measurement:
// the cross-validation target for the splitting estimator.
func hotConfig(clustered bool) Config {
	disks := 8
	if !clustered {
		disks = 16
	}
	return Config{
		Disks: disks, Width: 8, Parity: 2, Clustered: clustered,
		SegmentsPerDisk: 64,
		// 1 TB disks at 5 MB/s repair → ~56 h repair windows.
		DiskCapacityBytes: 1e12, DiskRepairBW: 5e6,
		DetectionDelayHours: 0.5,
	}
}

func TestLongRunBasics(t *testing.T) {
	ttf := failure.MustExponentialAFR(0.5)
	stats, err := LongRun(hotConfig(true), ttf, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskFailures == 0 {
		t.Fatal("no disk failures in 200 pool-years at 50% AFR")
	}
	// Expected failures ≈ disks·years·(−ln(0.5)) ≈ 8·200·0.693 ≈ 1109,
	// minus time spent under repair; allow a broad band.
	if stats.DiskFailures < 500 || stats.DiskFailures > 2000 {
		t.Errorf("DiskFailures = %d, expected ≈1100", stats.DiskFailures)
	}
	if stats.SimYears != 200 {
		t.Errorf("SimYears = %g", stats.SimYears)
	}
	if stats.MaxConcurrentFailures < 1 {
		t.Error("no concurrency observed")
	}
	if stats.CatastrophicCount != len(stats.Samples) {
		t.Errorf("samples (%d) != events (%d)", len(stats.Samples), stats.CatastrophicCount)
	}
	for _, s := range stats.Samples {
		if s.FailedDisks < 3 { // pl+1 = 3 distinct failed disks needed
			t.Errorf("catastrophic sample with %d failed disks", s.FailedDisks)
		}
		if s.LostStripes < 1 {
			t.Error("catastrophic sample without lost stripes")
		}
	}
}

func TestLongRunDeterministic(t *testing.T) {
	ttf := failure.MustExponentialAFR(0.5)
	a, err := LongRun(hotConfig(true), ttf, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LongRun(hotConfig(true), ttf, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.DiskFailures != b.DiskFailures || a.CatastrophicCount != b.CatastrophicCount {
		t.Error("same seed produced different runs")
	}
}

// TestSplitMatchesBruteForce is the headline stage-1 validation: on a
// configuration hot enough to brute-force, the splitting estimator and
// the long-run simulator must agree on the catastrophic rate.
func TestSplitMatchesBruteForce(t *testing.T) {
	for _, clustered := range []bool{true, false} {
		cfg := hotConfig(clustered)
		ttf := failure.MustExponentialAFR(0.8)

		var brute RunStats
		var err error
		years := 9000.0
		brute, err = LongRun(cfg, ttf, years, 11)
		if err != nil {
			t.Fatal(err)
		}
		if brute.CatastrophicCount < 20 {
			t.Fatalf("clustered=%v: only %d brute-force events; test configuration too cold",
				clustered, brute.CatastrophicCount)
		}
		bruteRate := brute.CatRatePerPoolHour()

		split, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 20000, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		ratio := split.CatRatePerPoolHour / bruteRate
		t.Logf("clustered=%v: brute %.3g/h (%d events), split %.3g/h, ratio %.2f",
			clustered, bruteRate, brute.CatastrophicCount, split.CatRatePerPoolHour, ratio)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("clustered=%v: splitting (%.3g) vs brute force (%.3g) ratio %.2f out of range",
				clustered, split.CatRatePerPoolHour, bruteRate, ratio)
		}
	}
}

// TestTrajectoryAllocs: on a warm worker, a trajectory that heals — the
// common outcome — allocates nothing: reseeding the generator, restoring
// the entry, the detections, the repair batches and the failure clock
// all reuse the worker's storage.
func TestTrajectoryAllocs(t *testing.T) {
	for _, cfg := range []Config{paperCpConfig(), paperDpConfig(120)} {
		base, err := NewPool(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		scratch := NewMachine(base, sim.New())
		scratch.Fail(3)
		entry := scratch.Snapshot()
		tr := newTrajectory(base.Clone(), failure.MustExponentialAFR(0.01))
		run := func() {
			tr.rng.Seed(42)
			if err := tr.run(entry); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if tr.outcome != outcomeDown || !tr.m.Pool.Healthy() {
			t.Fatalf("clustered=%v: trajectory ended with outcome %d, want a healed pool", cfg.Clustered, tr.outcome)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("clustered=%v: %g allocs per trajectory on a warm worker, want 0", cfg.Clustered, allocs)
		}
	}
}

// TestSplitClusteredLevelStructure: for a clustered pool every
// up-transition out of level pl is catastrophic, and none below are.
func TestSplitClusteredLevelStructure(t *testing.T) {
	cfg := hotConfig(true) // pl = 2
	ttf := failure.MustExponentialAFR(0.5)
	res, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 5000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelProbs) < 2 {
		t.Fatalf("only %d levels simulated", len(res.LevelProbs))
	}
	if res.CatFractions[0] != 0 {
		t.Errorf("catastrophe at level 1: %g", res.CatFractions[0])
	}
	// Level-pl up-transitions are catastrophic unless the priority
	// repairer already cleared every maximally-damaged stripe — so the
	// catastrophic fraction is positive but bounded by the up fraction.
	if res.LevelProbs[1] <= 0 {
		t.Fatal("no level-2 up-transitions observed")
	}
	if res.CatFractions[1] <= 0 || res.CatFractions[1] > res.LevelProbs[1]+1e-12 {
		t.Errorf("clustered level-pl: catFrac %g outside (0, levelProb %g]",
			res.CatFractions[1], res.LevelProbs[1])
	}
}

// TestSplitDeclusteredCoverageDiscount: a declustered pool's level-pl
// up-transitions are only sometimes catastrophic (stripe coverage +
// priority repair), strictly less often than a clustered pool's.
func TestSplitDeclusteredCoverageDiscount(t *testing.T) {
	ttf := failure.MustExponentialAFR(0.5)
	cl, err := Split(hotConfig(true), ttf, SplitConfig{TrajectoriesPerLevel: 10000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := Split(hotConfig(false), ttf, SplitConfig{TrajectoriesPerLevel: 10000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// Conditional catastrophe fraction at level pl: Dp strictly below Cp.
	if len(cl.CatFractions) > 1 && len(dc.CatFractions) > 1 && cl.LevelProbs[1] > 0 && dc.LevelProbs[1] > 0 {
		clCond := cl.CatFractions[1] / cl.LevelProbs[1]
		dcCond := dc.CatFractions[1] / dc.LevelProbs[1]
		t.Logf("P(cat | up at level pl): clustered %.3f, declustered %.3f", clCond, dcCond)
		if dcCond >= clCond {
			t.Errorf("declustered coverage discount missing: %g >= %g", dcCond, clCond)
		}
	} else {
		t.Fatal("insufficient level statistics")
	}
}

// TestFig7PaperScaleOrdering reproduces Figure 7's core message at the
// paper's pool geometry: the system-wide catastrophic-pool probability of
// local-Dp schemes (C/D, D/D) is orders of magnitude below local-Cp
// (C/C, D/C). AFR is raised to 4% to keep trajectory statistics stable;
// the ordering is AFR-independent (both rates scale polynomially).
func TestFig7PaperScaleOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale splitting in -short mode")
	}
	ttf := failure.MustExponentialAFR(0.04)
	cp, err := Split(paperCpConfig(), ttf, SplitConfig{TrajectoriesPerLevel: 15000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Split(paperDpConfig(240), ttf, SplitConfig{TrajectoriesPerLevel: 15000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// System rates: 2880 Cp pools vs 480 Dp pools (57,600 disks).
	cpSystem := cp.CatRatePerPoolHour * 2880
	dpSystem := dp.CatRatePerPoolHour * 480
	t.Logf("system catastrophic rate/h: Cp %.3g, Dp %.3g (ratio %.1f×)",
		cpSystem, dpSystem, cpSystem/dpSystem)
	if dpSystem >= cpSystem {
		t.Errorf("Fig 7 ordering violated: Dp system rate %g ≥ Cp %g", dpSystem, cpSystem)
	}
	// The paper reports roughly two orders of magnitude; require ≥ 5×
	// to be robust to trajectory noise.
	if cpSystem/dpSystem < 5 {
		t.Errorf("Fig 7 gap too small: %.1f×", cpSystem/dpSystem)
	}
}
