package syssim

import (
	"context"
	"runtime"
	"testing"

	"mlec/internal/burst"
	"mlec/internal/obs"

	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

// hotSystem is a small, failure-dense datacenter where catastrophic pools
// and even data loss are observable: 6 racks × 1 enclosure × 8 disks,
// (2+1)/(4+2) MLEC.
func hotSystem(scheme placement.Scheme, method repair.Method, afr float64) Config {
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 1
	topo.DisksPerEnclosure = 12
	topo.DiskCapacityBytes = 2e12
	topo.DiskBandwidth = 10e6 // slow repair → wide windows
	return Config{
		Topo:            topo,
		Params:          placement.Params{KN: 2, PN: 1, KL: 4, PL: 2},
		Scheme:          scheme,
		Method:          method,
		SegmentsPerDisk: 24,
		TTF:             failure.MustExponentialAFR(afr),
	}
}

func TestRunBasics(t *testing.T) {
	stats, err := RunContext(context.Background(), hotSystem(placement.SchemeCD, repair.RMin, 0.5), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskFailures == 0 {
		t.Fatal("no failures in 200 years at 50% AFR")
	}
	// 72 disks × 200 y × 0.69 failures/disk-year ≈ 10000, minus downtime.
	if stats.DiskFailures < 4000 || stats.DiskFailures > 15000 {
		t.Errorf("DiskFailures = %d, expected ≈10000", stats.DiskFailures)
	}
	if stats.CatastrophicEvents == 0 {
		t.Error("no catastrophic pools at this density")
	}
	if stats.SimYears != 200 {
		t.Errorf("SimYears = %g", stats.SimYears)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := RunContext(context.Background(), hotSystem(placement.SchemeCC, repair.RFCO, 0.5), 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), hotSystem(placement.SchemeCC, repair.RFCO, 0.5), 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestNetworkStripeCoverage(t *testing.T) {
	for _, scheme := range placement.AllSchemes {
		s, err := New(hotSystem(scheme, repair.RFCO, 0.5))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		// Every network stripe must have exactly kn+pn members, and
		// members of one network stripe must sit in distinct racks.
		width := s.cfg.Params.NetworkWidth()
		members := make(map[int32][]int) // ns → pool ids
		assigned := 0
		for p := range s.pools {
			for st, ns := range s.netOf[p] {
				_ = st
				if ns >= 0 {
					members[ns] = append(members[ns], p)
					assigned++
				}
			}
		}
		if s.stats.StrandedStripes > len(s.pools)*s.poolCfg.Stripes()/20 {
			t.Errorf("%v: %d stranded stripes (>5%%)", scheme, s.stats.StrandedStripes)
		}
		ppr := s.layout.LocalPoolsPerRack()
		for ns, ps := range members {
			if len(ps) != width {
				t.Fatalf("%v: network stripe %d has %d members, want %d", scheme, ns, len(ps), width)
			}
			racks := map[int]bool{}
			for _, p := range ps {
				racks[p/ppr] = true
			}
			if len(racks) != width {
				t.Fatalf("%v: network stripe %d spans %d racks", scheme, ns, len(racks))
			}
		}
	}
}

// TestMethodTrafficOrdering: cumulative network repair traffic must rank
// R_ALL > R_FCO ≥ R_HYB ≥ R_MIN over a long hot run.
func TestMethodTrafficOrdering(t *testing.T) {
	traffic := map[repair.Method]float64{}
	for _, m := range repair.AllMethods {
		stats, err := RunContext(context.Background(), hotSystem(placement.SchemeCD, m, 0.5), 400, 11)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CatastrophicEvents == 0 {
			t.Fatalf("%v: no catastrophic events to repair", m)
		}
		traffic[m] = stats.CrossRackRepairBytes
	}
	t.Logf("traffic: ALL=%.3g FCO=%.3g HYB=%.3g MIN=%.3g",
		traffic[repair.RAll], traffic[repair.RFCO], traffic[repair.RHYB], traffic[repair.RMin])
	if !(traffic[repair.RAll] > traffic[repair.RFCO]) {
		t.Error("R_ALL must move more than R_FCO")
	}
	if !(traffic[repair.RFCO] > traffic[repair.RHYB]) {
		t.Error("R_FCO must move more than R_HYB on a declustered pool")
	}
	if !(traffic[repair.RHYB] >= traffic[repair.RMin]) {
		t.Error("R_HYB must move at least as much as R_MIN")
	}
}

// TestRAllLosesMoreThanRFCO: under the pool-is-lost view, R_ALL records
// data-loss episodes that chunk-aware methods avoid (§4.2.3 F#1) on
// network-declustered schemes.
func TestRAllLosesMoreThanRFCO(t *testing.T) {
	all, err := RunContext(context.Background(), hotSystem(placement.SchemeDD, repair.RAll, 0.7), 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	fco, err := RunContext(context.Background(), hotSystem(placement.SchemeDD, repair.RFCO, 0.7), 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("D/D loss events: R_ALL %d, R_FCO %d (catastrophic: %d vs %d)",
		all.DataLossEvents, fco.DataLossEvents, all.CatastrophicEvents, fco.CatastrophicEvents)
	if all.DataLossEvents <= fco.DataLossEvents {
		t.Errorf("R_ALL (%d) must record more loss episodes than R_FCO (%d)",
			all.DataLossEvents, fco.DataLossEvents)
	}
}

// TestPaperScaleSmoke runs the real 57,600-disk datacenter at 1% AFR: no
// data loss, few (if any) catastrophic pools, failure count matching the
// fleet-wide expectation.
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
	cfg := Config{
		Topo:            topology.Default(),
		Params:          placement.DefaultParams(),
		Scheme:          placement.SchemeCD,
		Method:          repair.RMin,
		SegmentsPerDisk: 60,
		TTF:             failure.MustExponentialAFR(0.01),
	}
	years := 25.0
	stats, err := RunContext(context.Background(), cfg, years, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 57,600 disks × 25 y × ~0.01 ≈ 14,470 failures.
	expect := 57600.0 * years * 0.01005
	if f := float64(stats.DiskFailures); f < 0.9*expect || f > 1.1*expect {
		t.Errorf("DiskFailures = %d, expected ≈%.0f", stats.DiskFailures, expect)
	}
	if stats.DataLossEvents != 0 {
		t.Errorf("data loss at 1%% AFR in %g years: %d events", years, stats.DataLossEvents)
	}
	t.Logf("25 years of the paper datacenter: %d failures, %d catastrophic pools, %.3g TB network repair",
		stats.DiskFailures, stats.CatastrophicEvents, stats.CrossRackRepairBytes/1e12)
}

func TestConfigValidation(t *testing.T) {
	cfg := hotSystem(placement.SchemeCC, repair.RAll, 0.5)
	cfg.TTF = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil TTF accepted")
	}
	if _, err := RunContext(context.Background(), hotSystem(placement.SchemeCC, repair.RAll, 0.5), 0, 1); err == nil {
		t.Error("zero years accepted")
	}
}

// TestBurstPDLMatchesAnalytic cross-validates the structural burst
// injection against the burst package's analytic conditional-expectation
// estimator. The topology is built so the analytic evaluator's
// true-chunk-granularity stripe counts equal the simulator's segment
// counts (DiskCapacity = Segments × ChunkSize), making the two models
// directly comparable.
func TestBurstPDLMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("burst cross-validation in -short mode")
	}
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 1
	topo.DisksPerEnclosure = 12
	const segments = 24
	topo.DiskCapacityBytes = segments * topo.ChunkSizeBytes
	params := placement.Params{KN: 2, PN: 1, KL: 4, PL: 2}

	for _, scheme := range []placement.Scheme{placement.SchemeCD, placement.SchemeDD} {
		cfg := Config{
			Topo: topo, Params: params, Scheme: scheme, Method: repair.RFCO,
			SegmentsPerDisk: segments, TTF: failure.MustExponentialAFR(0.01),
		}
		const x, y, trials = 2, 10, 1500
		structural, err := BurstPDL(cfg, x, y, trials, 5)
		if err != nil {
			t.Fatal(err)
		}
		l, err := placement.NewLayout(topo, params, scheme)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := burst.PDLContext(context.Background(), burst.NewMLECEvaluator(l), x, y, 4000, 5, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v burst(x=%d,y=%d): structural %.3f vs analytic %.3f",
			scheme, x, y, structural, analytic.PDL)
		diff := structural - analytic.PDL
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.08 {
			t.Errorf("%v: structural %.3f vs analytic %.3f diverge", scheme, structural, analytic.PDL)
		}
	}
}

// TestDrainLoopAllocs holds RunContext's drain loop allocation-free on
// every scheme × method pair at 50 % AFR. Two runs from one seed share
// their setup, their teardown and their first span of events, so the
// mallocs the longer run makes beyond the shorter one are the drain
// loop's over the extra events. The one allocation allowed there is the
// progress note, rendered once per 1024 events: its Sprintf boxes two
// floats and builds the string, 3 mallocs, and now and then allocates
// fmt's printer afresh, because a garbage collection emptied its cache
// or, under the race detector, sync.Pool dropped it. Four a note covers
// both.
func TestDrainLoopAllocs(t *testing.T) {
	events := obs.Default.Counter("syssim_events_total")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(cfg Config, years float64) (mallocs, n int64) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0, e0 := ms.Mallocs, events.Value()
		if _, err := RunContext(context.Background(), cfg, years, 5); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return int64(ms.Mallocs - m0), events.Value() - e0
	}
	for _, scheme := range placement.AllSchemes {
		for _, method := range repair.AllMethods {
			cfg := hotSystem(scheme, method, 0.5)
			run(cfg, 1) // first-use registrations
			short, shortEvents := run(cfg, 50)
			long, longEvents := run(cfg, 200)
			notes := longEvents/1024 - shortEvents/1024 + 1
			t.Logf("%v %v: %d mallocs over %d events", scheme, method, long-short, longEvents-shortEvents)
			if extra := long - short; extra > 4*notes+16 {
				t.Errorf("%v %v: the drain loop made %d mallocs over %d events, want at most 4 per progress note (%d notes) and 16 more",
					scheme, method, extra, longEvents-shortEvents, notes)
			}
		}
	}
}
