package syssim

import (
	"context"
	"testing"
	"time"

	"mlec/internal/failure"
	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
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

// stopAfterCtx is a context whose Err turns non-nil at call polls+1: a
// cancellation that lands at an exact poll, whatever the host's speed.
type stopAfterCtx struct {
	context.Context
	polls, calls int
}

func (c *stopAfterCtx) Err() error {
	c.calls++
	if c.calls > c.polls {
		return context.Canceled
	}
	return nil
}

// TestBuildStopsAtPoolPoll: a context done while the system is being
// built stops construction at the next pool, and the run returns the
// all-zero Partial stats of a context done on entry. The first poll is
// run's check on entry; each later one is a pool's, so polls+1 calls in
// all means construction stopped at pool polls−1 of the paper
// datacenter's 2,880 clustered or 480 declustered pools.
func TestBuildStopsAtPoolPoll(t *testing.T) {
	for _, scheme := range []placement.Scheme{placement.SchemeCC, placement.SchemeDD} {
		cfg := Config{Topo: topology.Default(), Params: placement.DefaultParams(), Scheme: scheme,
			Method: repair.RMin, TTF: failure.MustExponentialAFR(0.01)}
		for _, polls := range []int{1, 2, 40} {
			ctx := &stopAfterCtx{Context: context.Background(), polls: polls}
			stats, err := RunContext(ctx, cfg, 10, 3)
			if err != nil {
				t.Fatal(err)
			}
			if stats != (Stats{Partial: true}) || ctx.calls != polls+1 {
				t.Errorf("%v, stopped at poll %d: %d polls, stats %+v; want %d and only Partial",
					scheme, polls+1, ctx.calls, stats, polls+1)
			}
		}
	}
}

// TestRunAllDealsEachPoolOnce runs the four paper schemes at once and
// one by one. C/D and D/D deal the same 480 declustered pools (same pool
// model, same per-pool seeds), so RunAllContext deals 480 layouts where
// four RunContext calls deal 960, and every run's stats are the same.
func TestRunAllDealsEachPoolOnce(t *testing.T) {
	const years, seed, pools = 2, 77001, 480
	var cfgs []Config
	for _, s := range placement.AllSchemes {
		cfgs = append(cfgs, Config{Topo: topology.Default(), Params: placement.DefaultParams(), Scheme: s,
			Method: repair.RMin, TTF: failure.MustExponentialAFR(0.05)})
	}
	deals := obs.Default.Counter("poolsim_declustered_deals_total")
	d0 := deals.Value()
	all, err := RunAllContext(context.Background(), cfgs, years, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := deals.Value() - d0; got != pools {
		t.Errorf("RunAllContext dealt %d declustered layouts, want %d", got, pools)
	}
	d0 = deals.Value()
	for i, cfg := range cfgs {
		st, err := RunContext(context.Background(), cfg, years, seed)
		if err != nil {
			t.Fatal(err)
		}
		if st != all[i] {
			t.Errorf("%v: RunAllContext %+v, RunContext %+v", cfg.Scheme, all[i], st)
		}
	}
	if got := deals.Value() - d0; got != 2*pools {
		t.Errorf("four RunContext calls dealt %d declustered layouts, want %d", got, 2*pools)
	}
}
