package syssim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"mlec/internal/mathx"
	"mlec/internal/obs"

	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

// hotSystem is a small, failure-dense datacenter where catastrophic pools
// and even data loss are observable: 6 racks × 1 enclosure × 8 disks,
// (2+1)/(4+2) MLEC.
func hotSystem(scheme placement.Scheme, method repair.Method, afr mathx.AFR) Config {
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
		S := s.poolCfg.Stripes()
		for i, ns := range s.netOf {
			if ns >= 0 {
				members[ns] = append(members[ns], i/S)
				assigned++
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
	// An unknown method is an error, not an R_MIN run.
	if _, err := New(hotSystem(placement.SchemeDD, repair.Method(7), 0.5)); !errors.Is(err, repair.ErrUnknownMethod) {
		t.Errorf("New(Method(7)) error = %v, want repair.ErrUnknownMethod", err)
	}
	if _, err := RunContext(context.Background(), hotSystem(placement.SchemeCC, repair.RAll, 0.5), 0, 1); err == nil {
		t.Error("zero years accepted")
	}
}

// TestDrainLoopAllocs holds RunContext's drain loop allocation-free on
// every scheme × method pair at 50 % AFR. Two runs from one seed share
// their setup, their teardown and their first span of events, so the
// mallocs the longer run makes beyond the shorter one are the drain
// loop's over the extra events. The one allocation allowed there is the
// progress note, rendered once per 1024 events into a string: one
// malloc, built without fmt, whose pooled printer the race detector
// drops at random. The mallocs are counted process-wide, and on a busy
// host something outside the loop may land in the count; the loop
// itself is deterministic and noise only adds mallocs, so each run is
// counted as the fewest of three repeats.
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
	fewest := func(cfg Config, years float64) (mallocs, n int64) {
		for i := 0; i < 3; i++ {
			m, e := run(cfg, years)
			if i == 0 || m < mallocs {
				mallocs = m
			}
			n = e
		}
		return mallocs, n
	}
	for _, scheme := range placement.AllSchemes {
		for _, method := range repair.AllMethods {
			cfg := hotSystem(scheme, method, 0.5)
			run(cfg, 1) // first-use registrations
			short, shortEvents := fewest(cfg, 50)
			long, longEvents := fewest(cfg, 200)
			notes := longEvents/1024 - shortEvents/1024 + 1
			t.Logf("%v %v: %d mallocs over %d events", scheme, method, long-short, longEvents-shortEvents)
			if extra := long - short; extra > notes+16 {
				t.Errorf("%v %v: the drain loop made %d mallocs over %d events, want at most 1 per progress note (%d notes) and 16 more",
					scheme, method, extra, longEvents-shortEvents, notes)
			}
		}
	}
}

// TestNewAllocsPerPool holds syssim.New on the paper datacenter (57,600
// disks in 2,880 clustered or 480 declustered local pools) to its
// allocation count per pool, once per local placement: 12 for the pool's
// state (its stripe sets in one allocation, disk states, down list), its
// machine and the system's callbacks — 11, and the system's own few
// spread over the pools — and 6 for a layout of its own (the dealer's
// generator, deck and marks, and the two layout arrays) — clustered
// pools share one. A disk's detection callback is
// made at its first failure, not here. An allocation per disk (20 or 120
// a pool) or per stripe (360), a slice grown disk by disk, or clustered
// pools building their own layouts again breaks the budget.
func TestNewAllocsPerPool(t *testing.T) {
	for _, scheme := range []placement.Scheme{placement.SchemeCC, placement.SchemeDD} {
		cfg := Config{Topo: topology.Default(), Params: placement.DefaultParams(), Scheme: scheme,
			Method: repair.RMin, TTF: failure.MustExponentialAFR(0.01), Seed: 1}
		l := placement.MustNewLayout(cfg.Topo, cfg.Params, scheme)
		pools := float64(l.TotalLocalPools())
		budget := 12.0
		if scheme.Local == placement.Declustered {
			budget += 6
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.0f mallocs, %.1f per pool", scheme, allocs, allocs/pools)
		if allocs > budget*pools {
			t.Errorf("%v: New made %.0f mallocs, %.1f per pool, want at most %g", scheme, allocs, allocs/pools, budget)
		}
	}
}

// TestLossBookAfterEveryHeal holds the network-stripe loss accounting to
// the pools' actual damage after every local heal (OnHealed) and every
// network repair: each local stripe's memberLost flag is set exactly when
// it has lost more than pl chunks (or, under a blind method, while its
// pool is catastrophic), poolLost counts a pool's flags and netLost a
// network stripe's flagged members. It runs every scheme under every
// repair method at a failure rate where local heals clear flagged stripes
// of catastrophic pools, and it checks that such heals happened.
func TestLossBookAfterEveryHeal(t *testing.T) {
	for _, scheme := range placement.AllSchemes {
		cleared := 0
		for _, method := range repair.AllMethods {
			cfg := hotSystem(scheme, method, 0.9)
			cfg.Seed = 17
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			heals := 0
			check := func(what string) {
				heals++
				if msg := s.lossBookMismatch(); msg != "" {
					t.Fatalf("%v %v: after %s %d at %.0f h: %s", scheme, method, what, heals, s.eng.Now(), msg)
				}
			}
			for p, m := range s.pools {
				onHealed, netDone := m.OnHealed, s.netDone[p]
				m.OnHealed = func(disks []int) {
					before := s.poolLost[p]
					onHealed(disks)
					if s.poolLost[p] < before {
						cleared++
					}
					check("local heal")
				}
				s.netDone[p] = func() { netDone(); check("network repair") }
			}
			s.armFailureClock()
			for horizon := 30 * mathx.HoursPerYear; ; {
				if next, ok := s.eng.NextTime(); !ok || next > horizon {
					break
				}
				s.eng.Step()
			}
			if heals == 0 {
				t.Fatalf("%v %v: no heal in 30 years", scheme, method)
			}
		}
		t.Logf("%v: %d local heals cleared a flagged stripe", scheme, cleared)
		if cleared == 0 {
			t.Errorf("%v: no local heal cleared a flagged stripe; the check never met the case it is for", scheme)
		}
	}
}

// lossBookMismatch recomputes memberLost, poolLost and netLost from the
// pools' stripe lost counts and describes the first disagreement, or
// returns "".
func (s *System) lossBookMismatch() string {
	S, pl := s.poolCfg.Stripes(), s.cfg.Params.PL
	netLost := make([]int16, len(s.netLost))
	for p, m := range s.pools {
		blind := s.cfg.Method.Blind() && s.poolCat[p]
		flagged := 0
		for st := range S {
			i := p*S + st
			want := blind || m.Pool.StripeLostCount(st) > pl
			if s.memberLost[i] != want {
				return fmt.Sprintf("pool %d stripe %d: memberLost %v, want %v (%d chunks lost)", p, st, s.memberLost[i], want, m.Pool.StripeLostCount(st))
			}
			if want {
				flagged++
				if ns := s.netOf[i]; ns >= 0 {
					netLost[ns]++
				}
			}
		}
		if s.poolLost[p] != flagged {
			return fmt.Sprintf("pool %d: poolLost %d, want %d", p, s.poolLost[p], flagged)
		}
	}
	for ns, n := range netLost {
		if s.netLost[ns] != n {
			return fmt.Sprintf("network stripe %d: netLost %d, want %d", ns, s.netLost[ns], n)
		}
	}
	return ""
}
