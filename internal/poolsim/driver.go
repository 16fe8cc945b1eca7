package poolsim

import (
	"context"
	"fmt"
	"math/rand"

	"mlec/internal/failure"
	"mlec/internal/sim"
)

// CatSample captures the pool state at the instant a catastrophic failure
// occurred, for injection at the network level by the splitting package.
type CatSample struct {
	TimeHours   float64
	FailedDisks int
	LostStripes int
	Profile     []int // stripe damage histogram (index = lost chunks)
}

// RunStats summarizes a long-run pool simulation.
type RunStats struct {
	SimYears          float64
	DiskFailures      int
	CatastrophicCount int
	Samples           []CatSample
	// MaxConcurrentFailures observed, a useful diagnostic.
	MaxConcurrentFailures int
	// Partial marks a run stopped early by context cancellation or
	// deadline. SimYears then holds the simulated span actually
	// covered, so CatRatePerPoolHour stays an honest rate.
	Partial bool
}

// CatRatePerPoolHour returns the observed catastrophic event rate.
func (s RunStats) CatRatePerPoolHour() float64 {
	if s.SimYears <= 0 {
		return 0
	}
	return float64(s.CatastrophicCount) / (s.SimYears * failure.HoursPerYear)
}

// driver feeds one Machine from a failure process — per-disk clocks
// drawn from a TTF distribution (LongRun) or a recorded trace (replay) —
// and keeps the run's statistics.
type driver struct {
	m   *Machine
	rng *rand.Rand
	ttf failure.TTFDistribution

	failEvents []sim.Event // per-disk pending failure event
	onFail     []func()    // per disk, dr.fail(d), bound once
	stats      RunStats
}

func newDriver(pool *Pool, ttf failure.TTFDistribution, rng *rand.Rand) *driver {
	dr := &driver{
		m:          NewMachine(pool, sim.New()),
		rng:        rng,
		ttf:        ttf,
		failEvents: make([]sim.Event, pool.Cfg.Disks),
		onFail:     make([]func(), pool.Cfg.Disks),
	}
	for d := range dr.onFail {
		dr.onFail[d] = func() { dr.fail(d) }
	}
	return dr
}

// scheduleFailure arms disk d's next failure.
func (dr *driver) scheduleFailure(d int) {
	dr.failEvents[d] = dr.m.eng.Schedule(dr.ttf.Sample(dr.rng), dr.onFail[d])
}

// fail counts the failure and hands it to the machine.
func (dr *driver) fail(d int) {
	dr.stats.DiskFailures++
	if f := dr.m.Pool.FailedDisks() + 1; f > dr.stats.MaxConcurrentFailures {
		dr.stats.MaxConcurrentFailures = f
	}
	dr.m.Fail(d)
}

func (dr *driver) recordCatastrophe() {
	dr.stats.CatastrophicCount++
	dr.stats.Samples = append(dr.stats.Samples, dr.m.CatSample())
}

// resetPool instantly heals everything and re-arms all failure clocks —
// used after a catastrophic event in LongRun (the event is handed to the
// network level; stage 1 only measures the pool's event rate).
func (dr *driver) resetPool() {
	dr.m.HealAll()
	for d := range dr.failEvents {
		dr.m.eng.Cancel(dr.failEvents[d])
		dr.scheduleFailure(d)
	}
}

// run fires events up to horizon, checking ctx between batches of
// events, and returns the statistics: over `years` when the horizon was
// reached, over the span actually simulated — marked Partial — when
// cancellation cut the run short at an event boundary.
func (dr *driver) run(ctx context.Context, horizon, years float64) RunStats {
	const pollEvery = 1024
	for i := 0; ; i++ {
		if i%pollEvery == 0 && ctx.Err() != nil {
			dr.stats.Partial = true
			dr.stats.SimYears = dr.m.eng.Now() / failure.HoursPerYear
			return dr.stats
		}
		next, ok := dr.m.eng.NextTime()
		if !ok || next > horizon {
			dr.stats.SimYears = years
			return dr.stats
		}
		dr.m.eng.Step()
	}
}

// LongRunContext simulates one pool for the given number of years and
// returns event statistics. After each catastrophic event the pool is
// reset (the network level takes over in the full system; here we only
// measure the pool-level rate). On cancellation or deadline the
// simulation stops at the next event boundary and returns the statistics
// over the span actually simulated, marked Partial.
func LongRunContext(ctx context.Context, cfg Config, ttf failure.TTFDistribution, years float64, seed int64) (RunStats, error) {
	dr, err := newLongRun(cfg, ttf, seed)
	if err != nil {
		return RunStats{}, err
	}
	if years <= 0 {
		return RunStats{}, fmt.Errorf("poolsim: years = %g", years)
	}
	return dr.run(ctx, years*failure.HoursPerYear, years), nil
}

// newLongRun is LongRun's driver, every disk's failure clock armed: a
// healed disk gets a new clock, and a catastrophe is recorded and the
// pool reset.
func newLongRun(cfg Config, ttf failure.TTFDistribution, seed int64) (*driver, error) {
	pool, err := NewPool(cfg, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	dr := newDriver(pool, ttf, rng)
	dr.m.OnHealed = func(healed []int) { // back in service, so a new failure clock each
		for _, d := range healed {
			dr.scheduleFailure(d)
		}
	}
	dr.m.OnCat = func() {
		dr.recordCatastrophe()
		dr.resetPool()
	}
	for d := 0; d < cfg.Disks; d++ {
		dr.scheduleFailure(d)
	}
	return dr, nil
}
