// Package syssim is the full-system MLEC simulator: every local pool of
// the datacenter simulated concurrently at segment granularity (the
// paper's headline artifact simulates >50,000 disks), with disk failures,
// detection delays, priority local rebuild, catastrophic-pool detection,
// network-level repair under any of the four repair methods, and exact
// network-stripe loss accounting for any of the four MLEC schemes.
//
// It complements the two-stage splitting estimator: where splitting
// composes rare events analytically, syssim measures them directly —
// feasible for hot configurations (high AFR or small systems), which is
// how the composition is validated end-to-end (see tests), and cheap
// enough at the paper's full scale to measure everything except the
// astronomically rare data-loss events themselves.
package syssim

import (
	"context"
	"fmt"
	"math/rand"

	"mlec/internal/bwmodel"
	"mlec/internal/failure"
	"mlec/internal/faultinject"
	"mlec/internal/mathx/rngsplit"
	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
	"mlec/internal/sim"
	"mlec/internal/topology"
)

// rngsplit stream ids. The fixed domains are negative so they can never
// collide with the per-pool streams at streamPool0+p.
const (
	streamEngine      = -1
	streamBurstLayout = -2
	streamPool0       = 0
)

// Config describes a full-system simulation.
type Config struct {
	Topo   topology.Config
	Params placement.Params
	Scheme placement.Scheme
	Method repair.Method

	// SegmentsPerDisk sets the simulation granularity (default 60).
	SegmentsPerDisk int
	// TTF is the per-disk time-to-failure distribution.
	TTF failure.TTFDistribution
	// DetectionDelayHours defaults to the paper's 30 minutes.
	DetectionDelayHours float64
	Seed                int64
}

// Stats summarizes a run.
type Stats struct {
	SimYears           float64
	DiskFailures       int
	CatastrophicEvents int // pools entering the catastrophic state
	DataLossEvents     int // network stripes crossing > pn lost members
	// CrossRackRepairBytes is the cumulative network repair traffic.
	CrossRackRepairBytes float64
	// MaxConcurrentCatPools observed.
	MaxConcurrentCatPools int
	// StrandedStripes counts local stripes the declustered network
	// grouping could not place in distinct racks (excluded from loss
	// accounting; ≈0 for symmetric configurations).
	StrandedStripes int
	// Partial marks a run stopped early by context cancellation or
	// deadline. SimYears then holds the simulated span actually
	// covered, so rates derived from these stats stay honest.
	Partial bool
}

// System is the running simulator state.
type System struct {
	cfg     Config
	layout  *placement.Layout
	poolCfg poolsim.Config
	eng     *sim.Engine
	rng     *rand.Rand

	pools     []*poolsim.Machine // every local pool under the local-repair rule
	netRepair []*sim.Event       // network repair completion per pool

	// Network stripe bookkeeping.
	netOf      [][]int32 // [pool][stripe] → network stripe id (-1 stranded)
	netLost    []int16   // lost-member count per network stripe
	netDead    []bool    // currently counted as a loss episode
	memberLost [][]bool  // [pool][stripe]: counted as lost member

	poolCat []bool // pool currently catastrophic

	healthy      int // healthy disks, system-wide
	poolHealthy  []int
	failureEvent *sim.Event

	netBW float64 // network repair bandwidth (bytes/s)

	stats Stats

	// Observability cells, resolved once at construction so the event
	// loop pays one atomic per update. Strictly write-only: the
	// simulation never reads them back.
	eventsC    *obs.Counter
	failuresC  *obs.Counter
	catC       *obs.Counter
	catGauge   *obs.Gauge
	depthGauge *obs.Gauge
}

// New builds the simulator.
func New(cfg Config) (*System, error) {
	if cfg.SegmentsPerDisk <= 0 {
		cfg.SegmentsPerDisk = 60
	}
	if cfg.DetectionDelayHours == 0 {
		cfg.DetectionDelayHours = failure.DefaultDetectionDelayHours
	}
	if cfg.TTF == nil {
		return nil, fmt.Errorf("syssim: TTF distribution required")
	}
	l, err := placement.NewLayout(cfg.Topo, cfg.Params, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	pc := poolsim.Config{
		Disks:               l.LocalPoolSize(),
		Width:               cfg.Params.LocalWidth(),
		Parity:              cfg.Params.PL,
		Clustered:           cfg.Scheme.Local == placement.Clustered,
		SegmentsPerDisk:     cfg.SegmentsPerDisk,
		DiskCapacityBytes:   cfg.Topo.DiskCapacityBytes,
		DiskRepairBW:        cfg.Topo.DiskRepairBandwidth(),
		DetectionDelayHours: cfg.DetectionDelayHours,
	}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		layout:  l,
		poolCfg: pc,
		eng:     sim.New(),
		rng:     rngsplit.Derive(cfg.Seed, streamEngine),
		netBW:   bwmodel.New(l).PoolRepairBandwidth(),

		eventsC:    obs.Default.Counter("syssim_events_total"),
		failuresC:  obs.Default.Counter("syssim_disk_failures_total"),
		catC:       obs.Default.Counter("syssim_cat_events_total"),
		catGauge:   obs.Default.Gauge("syssim_pools_catastrophic"),
		depthGauge: obs.Default.Gauge("syssim_event_queue_depth"),
	}
	n := l.TotalLocalPools()
	s.pools = make([]*poolsim.Machine, n)
	s.netRepair = make([]*sim.Event, n)
	s.memberLost = make([][]bool, n)
	s.poolCat = make([]bool, n)
	s.poolHealthy = make([]int, n)
	for p := 0; p < n; p++ {
		pool, err := poolsim.NewPool(pc, rngsplit.Mix(cfg.Seed, streamPool0+p))
		if err != nil {
			return nil, err
		}
		m := poolsim.NewMachine(pool, s.eng)
		m.Trace, m.ID = obs.Trace, p
		m.OnHealed = func(disks []int) {
			s.onDisksHealed(p, len(disks))
			s.refreshMemberLost(p)
		}
		m.OnCat = func() {
			s.refreshMemberLost(p)
			s.onCatastrophic(p)
		}
		s.pools[p] = m
		s.memberLost[p] = make([]bool, pc.Stripes())
		s.poolHealthy[p] = pc.Disks
	}
	s.healthy = n * pc.Disks
	if err := s.buildNetworkStripes(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildNetworkStripes assigns every local stripe to a network stripe.
func (s *System) buildNetworkStripes() error {
	l := s.layout
	S := s.poolCfg.Stripes()
	width := s.cfg.Params.NetworkWidth()
	nPools := len(s.pools)
	s.netOf = make([][]int32, nPools)
	for p := range s.netOf {
		s.netOf[p] = make([]int32, S)
		for i := range s.netOf[p] {
			s.netOf[p][i] = -1
		}
	}

	if s.cfg.Scheme.Network == placement.Clustered {
		// Aligned: network stripe (np, s) = local stripe s of each of
		// np's member pools.
		nNet := l.TotalNetworkPools() * S
		s.netLost = make([]int16, nNet)
		s.netDead = make([]bool, nNet)
		for p := 0; p < nPools; p++ {
			np := l.NetworkPoolOf(p)
			for st := 0; st < S; st++ {
				s.netOf[p][st] = int32(np*S + st)
			}
		}
		return nil
	}

	// Declustered: repeatedly shuffle the racks and carve groups of
	// `width` distinct racks; each group yields one network stripe
	// consuming one free local stripe from a random pool of each rack.
	ppr := l.LocalPoolsPerRack()
	racks := l.Topo.Racks
	nextFree := make([]int, nPools)
	var freeByRack [][]int // rack → pools with free stripes
	rebuildFree := func() {
		freeByRack = make([][]int, racks)
		for p := 0; p < nPools; p++ {
			if nextFree[p] < S {
				r := p / ppr
				freeByRack[r] = append(freeByRack[r], p)
			}
		}
	}
	rebuildFree()
	total := nPools * S / width
	var netLost []int16
	perm := make([]int, racks)
	for i := range perm {
		perm[i] = i
	}
	assigned := 0
	stall := 0
	for assigned < total && stall < 3 {
		s.rng.Shuffle(racks, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		progressed := false
		for g := 0; g+width <= racks; g += width {
			ok := true
			for _, r := range perm[g : g+width] {
				if len(freeByRack[r]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ns := int32(len(netLost))
			netLost = append(netLost, 0)
			for _, r := range perm[g : g+width] {
				idx := s.rng.Intn(len(freeByRack[r]))
				p := freeByRack[r][idx]
				s.netOf[p][nextFree[p]] = ns
				nextFree[p]++
				if nextFree[p] == S {
					freeByRack[r][idx] = freeByRack[r][len(freeByRack[r])-1]
					freeByRack[r] = freeByRack[r][:len(freeByRack[r])-1]
				}
			}
			assigned++
			progressed = true
		}
		if !progressed {
			stall++
		} else {
			stall = 0
		}
	}
	// Stripes never assigned stay at -1 (stranded).
	for p := 0; p < nPools; p++ {
		s.stats.StrandedStripes += S - nextFree[p]
	}
	s.netLost = netLost
	s.netDead = make([]bool, len(netLost))
	return nil
}

// Run simulates for the given number of years and returns statistics.
// Run is RunContext without cancellation.
func Run(cfg Config, years float64, seed int64) (Stats, error) {
	return RunContext(context.Background(), cfg, years, seed)
}

// RunContext is Run under run control: the event loop polls ctx between
// batches of events, so cancellation or a deadline stops the simulation
// at an event boundary and returns statistics over the span actually
// simulated, marked Partial. The event sequence up to that boundary is
// identical to an uninterrupted run's — cancellation changes where the
// run stops, never what it simulates.
func RunContext(ctx context.Context, cfg Config, years float64, seed int64) (Stats, error) {
	cfg.Seed = seed
	s, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	if years <= 0 {
		return Stats{}, fmt.Errorf("syssim: years = %g", years)
	}
	s.armFailureClock()
	horizon := years * failure.HoursPerYear
	task := obs.Progress.StartTask("syssim.run", 0)
	defer task.Finish()
	span := obs.StartSpan("syssim.run")
	defer func() {
		if span != nil {
			span.EndNote(fmt.Sprintf("years %g seed %d", years, seed))
		}
	}()
	const pollEvery = 1024
	//mlec:hot datacenter event loop; every simulated failure and repair drains through here
	for i := 0; ; i++ {
		if i%pollEvery == 0 {
			// Poll-point observability: queue depth and simulated span.
			// Reads of engine state here feed metrics only, never flow
			// back into the simulation.
			s.depthGauge.Set(int64(s.eng.Pending()))
			//lint:allow hotalloc progress note renders once per 1024 events, amortized away
			task.SetNote(fmt.Sprintf("simyears %.2f/%.2f", s.eng.Now()/failure.HoursPerYear, years))
			//lint:allow hotalloc context poll is amortized to one dispatch per 1024 events
			if ctx.Err() != nil {
				s.stats.Partial = true
				s.stats.SimYears = s.eng.Now() / failure.HoursPerYear
				return s.stats, nil
			}
			// Chaos hook, amortized with the poll. syssim is
			// single-threaded, so there is no pool to heal an injected
			// fault: error kinds fail the run loudly (panic kinds kill
			// it), which is exactly what a chaos probe of an unhealable
			// engine should report.
			if err := faultinject.Fire("syssim.events", cfg.Seed); err != nil {
				return s.stats, fmt.Errorf("syssim: injected fault: %w", err)
			}
		}
		next, ok := s.eng.NextTime()
		if !ok || next > horizon {
			break
		}
		s.eng.Step()
		s.eventsC.Inc()
		task.Add(1)
	}
	s.eng.RunUntil(horizon) // advance the clock; no events fire
	s.stats.SimYears = years
	return s.stats, nil
}

// armFailureClock schedules the next system-wide disk failure using the
// aggregate exponential rate over healthy disks. Only valid for
// memoryless TTFs; other distributions take the per-disk path (slower but
// exact) via the fallback in nextFailureDelay.
func (s *System) armFailureClock() {
	s.eng.Cancel(s.failureEvent)
	s.failureEvent = nil
	if s.healthy == 0 {
		return
	}
	delay := s.nextFailureDelay()
	s.failureEvent = s.eng.Schedule(delay, func() {
		s.failureEvent = nil
		s.failRandomDisk()
		s.armFailureClock()
	})
}

func (s *System) nextFailureDelay() float64 {
	if exp, ok := s.cfg.TTF.(failure.Exponential); ok {
		return s.rng.ExpFloat64() / (float64(s.healthy) * exp.RatePerHour)
	}
	// Non-memoryless fallback: approximate the aggregate process by
	// sampling one TTF and scaling by the healthy count. Exact per-disk
	// clocks would need 57,600 events in flight; this keeps the
	// aggregate rate right while losing per-disk ageing (documented).
	return s.cfg.TTF.Sample(s.rng) / float64(s.healthy)
}

// failRandomDisk picks a uniformly random healthy disk and fails it.
func (s *System) failRandomDisk() {
	target := s.rng.Intn(s.healthy)
	pool := -1
	for p, h := range s.poolHealthy {
		if target < h {
			pool = p
			break
		}
		target -= h
	}
	if pool < 0 {
		return
	}
	d := s.pools[pool].Pool.RandomHealthyDisk(s.rng)
	s.stats.DiskFailures++
	s.failuresC.Inc()
	obs.Trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvFailure, Pool: pool, Disk: d})
	s.poolHealthy[pool]--
	s.healthy--
	s.pools[pool].Fail(d)
}

func (s *System) onDisksHealed(pool, n int) {
	if n == 0 {
		return
	}
	s.poolHealthy[pool] += n
	s.healthy += n
	s.armFailureClock()
}

// onCatastrophic handles a pool entering (or deepening) the catastrophic
// state: schedule/replan the network-level repair per the method.
func (s *System) onCatastrophic(pool int) {
	if !s.poolCat[pool] {
		s.poolCat[pool] = true
		s.stats.CatastrophicEvents++
		s.catC.Inc()
		c := s.concurrentCatPools()
		s.catGauge.Set(int64(c))
		obs.Trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvPoolCat, Pool: pool})
		if c > s.stats.MaxConcurrentCatPools {
			s.stats.MaxConcurrentCatPools = c
		}
		if s.cfg.Method == repair.RAll {
			s.markWholePool(pool, true)
		}
	}
	// (Re)plan the network stage from the current damage.
	s.eng.Cancel(s.netRepair[pool])
	volume := s.networkVolume(pool)
	hours := volume/s.netBW/3600 + s.cfg.DetectionDelayHours
	obs.Trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvRepairStart,
		Pool: pool, Method: s.cfg.Method.String(), Bytes: volume})
	s.netRepair[pool] = s.eng.Schedule(hours, func() {
		s.netRepair[pool] = nil
		s.completeNetworkRepair(pool)
	})
}

func (s *System) concurrentCatPools() int {
	n := 0
	for _, c := range s.poolCat {
		if c {
			n++
		}
	}
	return n
}

// networkVolume returns the bytes the network stage must reconstruct for
// this pool under the configured method.
func (s *System) networkVolume(pool int) float64 {
	p := s.pools[pool].Pool
	seg := s.poolCfg.SegmentBytes()
	switch s.cfg.Method {
	case repair.RAll:
		return float64(s.poolCfg.Disks) * s.cfg.Topo.DiskCapacityBytes
	case repair.RFCO:
		// All currently-lost chunks in the pool.
		chunks := 0
		prof := p.Profile()
		for j, n := range prof {
			chunks += j * n
		}
		return float64(chunks) * seg
	case repair.RHYB:
		chunks := 0
		for _, st := range p.LostStripeIDs() {
			chunks += p.StripeLostCount(st)
		}
		return float64(chunks) * seg
	default: // RMin
		chunks := 0
		for _, st := range p.LostStripeIDs() {
			chunks += p.StripeLostCount(st) - s.cfg.Params.PL
		}
		return float64(chunks) * seg
	}
}

// completeNetworkRepair applies the method's network stage and updates
// the loss accounting.
func (s *System) completeNetworkRepair(pool int) {
	m := s.pools[pool]
	p := m.Pool
	volume := s.networkVolume(pool)
	traffic := volume * float64(s.cfg.Params.KN+1)
	s.stats.CrossRackRepairBytes += traffic
	obs.Trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvRepairEnd,
		Pool: pool, Method: s.cfg.Method.String(), Bytes: traffic})

	switch s.cfg.Method {
	case repair.RAll, repair.RFCO:
		// The network stage rebuilt every failed chunk (R_ALL rebuilds
		// even healthy ones; same end state).
		healed := p.FailedDisks()
		m.HealAll()
		s.onDisksHealed(pool, healed)
	case repair.RHYB:
		total := 0
		for _, st := range p.LostStripeIDs() {
			healedDisks := p.HealStripeChunks(st, p.StripeLostCount(st))
			total += len(healedDisks)
		}
		s.onDisksHealed(pool, total)
		m.Replan()
	default: // RMin: bring every lost stripe back to pl losses
		total := 0
		for _, st := range p.LostStripeIDs() {
			if n := p.StripeLostCount(st) - s.cfg.Params.PL; n > 0 {
				healedDisks := p.HealStripeChunks(st, n)
				total += len(healedDisks)
			}
		}
		s.onDisksHealed(pool, total)
		m.Replan()
	}

	if s.cfg.Method == repair.RAll {
		s.markWholePool(pool, false)
	}
	s.poolCat[pool] = false
	s.catGauge.Set(int64(s.concurrentCatPools()))
	obs.Trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvPoolHeal, Pool: pool})
	s.refreshMemberLost(pool)
	// New damage may already have re-accumulated during the window.
	if p.LostStripes() > 0 {
		s.onCatastrophic(pool)
	}
}

// markWholePool flips the R_ALL pool-is-lost view: every stripe of the
// pool counts as a lost member while the pool is catastrophic.
func (s *System) markWholePool(pool int, lost bool) {
	for st := range s.memberLost[pool] {
		s.setMemberLost(pool, st, lost)
	}
}

// refreshMemberLost reconciles the pool's actual lost stripes with the
// network accounting (no-op for R_ALL while the pool-is-lost view holds).
func (s *System) refreshMemberLost(pool int) {
	if s.cfg.Method == repair.RAll && s.poolCat[pool] {
		return
	}
	p := s.pools[pool].Pool
	pl := s.cfg.Params.PL
	for st, counted := range s.memberLost[pool] {
		actual := p.StripeLostCount(st) > pl
		if actual != counted {
			s.setMemberLost(pool, st, actual)
		}
	}
}

// setMemberLost updates one local stripe's lost-member flag and the
// network stripe counters, recording loss episodes.
func (s *System) setMemberLost(pool, stripe int, lost bool) {
	if s.memberLost[pool][stripe] == lost {
		return
	}
	s.memberLost[pool][stripe] = lost
	ns := s.netOf[pool][stripe]
	if ns < 0 {
		return // stranded stripe
	}
	if lost {
		s.netLost[ns]++
		if int(s.netLost[ns]) > s.cfg.Params.PN && !s.netDead[ns] {
			s.netDead[ns] = true
			s.stats.DataLossEvents++
		}
	} else {
		s.netLost[ns]--
		if int(s.netLost[ns]) <= s.cfg.Params.PN {
			s.netDead[ns] = false
		}
	}
}
