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
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"

	"mlec/internal/bwmodel"
	"mlec/internal/failure"
	"mlec/internal/mathx"
	"mlec/internal/mathx/rngsplit"
	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
	"mlec/internal/runctl"
	"mlec/internal/sim"
	"mlec/internal/topology"
)

// rngsplit stream ids. The fixed domains are negative so they can never
// collide with the per-pool streams at streamPool0+p.
const (
	streamEngine = -1
	streamPool0  = 0
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
	netRepair []sim.Event        // network repair completion per pool
	netDone   []func()           // per pool, s.completeNetworkRepair(p), bound once

	// Network stripe bookkeeping.
	netOf      []int32 // [pool·stripes + stripe] → network stripe id (-1 stranded)
	netLost    []int16 // lost-member count per network stripe
	netDead    []bool  // currently counted as a loss episode
	memberLost []bool  // [pool·stripes + stripe]: counted as lost member
	poolLost   []int   // per pool, its stripes flagged in memberLost

	poolCat  []bool // pool currently catastrophic
	catPools int    // pools currently catastrophic

	healthy      int     // healthy disks, system-wide
	poolHealthy  fenwick // healthy disks per pool
	failureEvent sim.Event
	onFailure    func() // s.fireFailure, bound once

	netBW float64 // network repair bandwidth (bytes/s)

	stats Stats

	// trace receives every event the run emits, its pools' included:
	// obs.Trace, or a recorder held for RunAllContext's ordered commit.
	trace *obs.Recorder

	// Observability cells, resolved once at construction so the event
	// loop pays one atomic per update. Strictly write-only: the
	// simulation never reads them back.
	eventsC   *obs.Counter
	failuresC *obs.Counter
	catC      *obs.Counter
}

// New builds the simulator, tracing to obs.Trace.
func New(cfg Config) (*System, error) { return build(context.Background(), cfg, obs.Trace) }

// errBuildStopped is build's answer when ctx was done before every pool
// was built.
var errBuildStopped = errors.New("syssim: construction stopped")

// build builds the simulator, tracing to trace. It polls ctx once a pool
// (480 or 2,880 of them in the paper datacenter, ≈ 0.1–0.3 s in all), so
// a cancellation or deadline does not wait for the rest.
func build(ctx context.Context, cfg Config, trace *obs.Recorder) (*System, error) {
	if cfg.SegmentsPerDisk <= 0 {
		cfg.SegmentsPerDisk = 60
	}
	if cfg.DetectionDelayHours == 0 {
		cfg.DetectionDelayHours = failure.DefaultDetectionDelayHours
	}
	if cfg.TTF == nil {
		return nil, fmt.Errorf("syssim: TTF distribution required")
	}
	if err := cfg.Method.Validate(); err != nil {
		return nil, fmt.Errorf("syssim: %w", err)
	}
	l, err := placement.NewLayout(cfg.Topo, cfg.Params, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	// NewPool validates pc, so the first pool reports a bad one.
	pc := poolsim.ConfigFor(l, cfg.SegmentsPerDisk)
	pc.DetectionDelayHours = cfg.DetectionDelayHours
	s := &System{
		cfg:     cfg,
		layout:  l,
		poolCfg: pc,
		eng:     sim.New(),
		rng:     rngsplit.Derive(cfg.Seed, streamEngine),
		netBW:   bwmodel.New(l).PoolRepairBandwidth(),
		trace:   trace,

		eventsC:   obs.Default.Counter("syssim_events_total"),
		failuresC: obs.Default.Counter("syssim_disk_failures_total"),
		catC:      obs.Default.Counter("syssim_cat_events_total"),
	}
	n := l.TotalLocalPools()
	s.onFailure = s.fireFailure
	s.pools = make([]*poolsim.Machine, n)
	s.netRepair = make([]sim.Event, n)
	s.netDone = make([]func(), n)
	s.memberLost = make([]bool, n*pc.Stripes())
	s.poolLost = make([]int, n)
	s.poolCat = make([]bool, n)
	s.poolHealthy = make(fenwick, n+1)
	for p := 0; p < n; p++ {
		if ctx.Err() != nil {
			return nil, errBuildStopped
		}
		var pool *poolsim.Pool
		if pc.Clustered && p > 0 {
			// Clustered layouts ignore the seed: share pool 0's, still pristine.
			pool = s.pools[0].Pool.Clone()
		} else if pool, err = poolsim.NewPool(pc, rngsplit.Mix(cfg.Seed, streamPool0+p)); err != nil {
			return nil, err
		}
		m := poolsim.NewMachine(pool, s.eng)
		m.Trace, m.ID = trace, p
		m.OnHealed = func(disks []int) {
			s.onDisksHealed(p, len(disks))
			// Healing only lowers lost counts: a pool with no flagged
			// stripe has none to clear and gains none.
			if s.poolLost[p] > 0 {
				s.refreshMemberLost(p)
			}
		}
		m.OnCat = func() {
			s.refreshMemberLost(p)
			s.onCatastrophic(p)
		}
		s.netDone[p] = func() { s.completeNetworkRepair(p) }
		s.pools[p] = m
		s.poolHealthy.add(p, pc.Disks)
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
	s.netOf = make([]int32, nPools*S)
	for i := range s.netOf {
		s.netOf[i] = -1
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
				s.netOf[p*S+st] = int32(np*S + st)
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
	freeByRack := make([][]int, racks) // rack → pools with free stripes
	for p := range nPools {
		freeByRack[p/ppr] = append(freeByRack[p/ppr], p)
	}
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
				s.netOf[p*S+nextFree[p]] = ns
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

// RunContext simulates for the given number of years and returns
// statistics. The event loop polls ctx between batches of events, so
// cancellation or a deadline stops the simulation at an event boundary
// and returns statistics over the span actually simulated, marked
// Partial. The event sequence up to that boundary is identical to an
// uninterrupted run's — cancellation changes where the run stops, never
// what it simulates. A context already done on entry, or done while the
// system is being built (polled once a pool), stops the run before the
// system is whole: its Partial stats are all zero, StrandedStripes (a
// fact of the built system) included.
func RunContext(ctx context.Context, cfg Config, years float64, seed int64) (Stats, error) {
	return run(ctx, cfg, years, seed, obs.Trace)
}

// RunAllContext runs RunContext for every config at once, one runctl.Pool
// worker each (its stream the config's index), and returns their stats
// in cfgs' order. Each run traces into a recorder of its own held from
// obs.Trace; once every run has returned they are committed in cfgs'
// order, so the trace holds the bytes a loop over RunContext writes.
// Cancellation stops every run at its next poll, each Partial. The error
// is that of the earliest config whose run failed.
func RunAllContext(ctx context.Context, cfgs []Config, years float64, seed int64) ([]Stats, error) {
	stats := make([]Stats, len(cfgs))
	held := make([]*obs.Recorder, len(cfgs))
	pool := runctl.NewPool(ctx)
	for i, cfg := range cfgs {
		held[i] = obs.Trace.Hold()
		pool.Go(int64(i), func(ctx context.Context) (err error) {
			stats[i], err = run(ctx, cfg, years, seed, held[i])
			return err
		})
	}
	err := pool.Wait()
	for _, h := range held {
		obs.Trace.Commit(h)
	}
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// run is RunContext tracing to trace.
func run(ctx context.Context, cfg Config, years float64, seed int64, trace *obs.Recorder) (Stats, error) {
	if ctx.Err() != nil {
		return Stats{Partial: true}, nil
	}
	cfg.Seed = seed
	s, err := build(ctx, cfg, trace)
	if errors.Is(err, errBuildStopped) {
		return Stats{Partial: true}, nil
	}
	if err != nil {
		return Stats{}, err
	}
	if years <= 0 {
		return Stats{}, fmt.Errorf("syssim: years = %g", years)
	}
	s.armFailureClock()
	horizon := years * mathx.HoursPerYear
	task := obs.Progress.StartTask("syssim.run", 0)
	defer task.Finish()
	span := obs.StartSpan("syssim.run")
	defer func() {
		if span != nil {
			span.EndNote(fmt.Sprintf("years %g seed %d", years, seed))
		}
	}()
	const pollEvery = 1024
	note := make([]byte, 0, 48) // the progress note's bytes
	//mlec:hot datacenter event loop; every simulated failure and repair drains through here
	for i := 0; ; i++ {
		if i%pollEvery == 0 {
			// Poll-point observability: the simulated span. Reads of
			// engine state here feed the progress note only, never flow
			// back into the simulation. The note is rebuilt in place, not
			// by fmt, whose pooled printer the race detector drops at
			// random: its one malloc is the string.
			note = append(note[:0], "simyears "...)
			note = strconv.AppendFloat(note, s.eng.Now()/mathx.HoursPerYear, 'f', 2, 64)
			note = append(note, '/')
			note = strconv.AppendFloat(note, years, 'f', 2, 64)
			//lint:allow hotalloc progress note renders once per 1024 events, amortized away
			task.SetNote(string(note))
			//lint:allow hotalloc context poll is amortized to one dispatch per 1024 events
			if ctx.Err() != nil {
				s.stats.Partial = true
				s.stats.SimYears = s.eng.Now() / mathx.HoursPerYear
				return s.stats, nil
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
	if s.healthy == 0 {
		return
	}
	s.failureEvent = s.eng.Schedule(s.nextFailureDelay(), s.onFailure)
}

// fireFailure is the failure clock's event: a disk fails, and the clock
// is drawn again for the new healthy count.
func (s *System) fireFailure() {
	s.failRandomDisk()
	s.armFailureClock()
}

func (s *System) nextFailureDelay() float64 {
	if exp, ok := s.cfg.TTF.(failure.Exponential); ok {
		return s.rng.ExpFloat64() / (float64(s.healthy) * float64(exp.RatePerHour))
	}
	// Non-memoryless fallback: approximate the aggregate process by
	// sampling one TTF and scaling by the healthy count. Exact per-disk
	// clocks would need 57,600 events in flight; this keeps the
	// aggregate rate right while losing per-disk ageing (documented).
	return s.cfg.TTF.Sample(s.rng) / float64(s.healthy)
}

// failRandomDisk picks a uniformly random healthy disk and fails it.
func (s *System) failRandomDisk() {
	pool := s.poolHealthy.find(s.rng.Intn(s.healthy))
	d := s.pools[pool].Pool.RandomHealthyDisk(s.rng)
	s.stats.DiskFailures++
	s.failuresC.Inc()
	s.trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvFailure, Pool: pool, Disk: d})
	s.poolHealthy.add(pool, -1)
	s.healthy--
	s.pools[pool].Fail(d)
}

// fenwick is a Fenwick tree of the pools' healthy disk counts: t[i] sums
// those of pools [i − lowbit(i), i).
type fenwick []int

func (t fenwick) add(pool, n int) {
	for i := pool + 1; i < len(t); i += i & -i {
		t[i] += n
	}
}

// find returns the first pool p with target < count(0) + … + count(p).
func (t fenwick) find(target int) int {
	p := 0
	for step := 1 << (bits.Len(uint(len(t)-1)) - 1); step > 0; step >>= 1 {
		if q := p + step; q < len(t) && t[q] <= target {
			p, target = q, target-t[q]
		}
	}
	return p
}

func (s *System) onDisksHealed(pool, n int) {
	if n == 0 {
		return
	}
	s.poolHealthy.add(pool, n)
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
		s.catPools++
		s.trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvPoolCat, Pool: pool})
		if s.catPools > s.stats.MaxConcurrentCatPools {
			s.stats.MaxConcurrentCatPools = s.catPools
		}
		if s.cfg.Method.Blind() {
			s.markWholePool(pool, true)
		}
	}
	// (Re)plan the network stage from the current damage.
	s.eng.Cancel(s.netRepair[pool])
	volume := s.networkVolume(pool)
	hours := volume/s.netBW/3600 + s.cfg.DetectionDelayHours
	s.trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvRepairStart,
		Pool: pool, Method: s.cfg.Method.String(), Bytes: volume})
	s.netRepair[pool] = s.eng.Schedule(hours, s.netDone[pool])
}

// networkVolume returns the bytes the network stage must reconstruct for
// this pool under the configured method.
func (s *System) networkVolume(pool int) float64 {
	if s.cfg.Method.Blind() {
		return float64(s.poolCfg.Disks) * s.cfg.Topo.DiskCapacityBytes
	}
	p := s.pools[pool].Pool
	chunks := 0
	for st := range s.poolCfg.Stripes() {
		chunks += s.cfg.Method.NetworkChunks(p.StripeLostCount(st), s.cfg.Params.PL)
	}
	return float64(chunks) * s.poolCfg.SegmentBytes()
}

// completeNetworkRepair applies the method's network stage and updates
// the loss accounting.
func (s *System) completeNetworkRepair(pool int) {
	m := s.pools[pool]
	p := m.Pool
	volume := s.networkVolume(pool)
	traffic := volume * float64(s.cfg.Params.KN+1)
	s.stats.CrossRackRepairBytes += traffic
	s.trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvRepairEnd,
		Pool: pool, Method: s.cfg.Method.String(), Bytes: traffic})

	// The network stage rebuilt the method's share of every stripe's lost
	// chunks (a blind method's share is all of them, the same end state as
	// rebuilding the healthy ones too); local repair plans the rest.
	healed := 0
	for st := range s.poolCfg.Stripes() {
		if n := s.cfg.Method.NetworkChunks(p.StripeLostCount(st), s.cfg.Params.PL); n > 0 {
			healed += p.HealStripeChunks(st, n)
		}
	}
	s.onDisksHealed(pool, healed)
	m.Replan()

	if s.cfg.Method.Blind() {
		s.markWholePool(pool, false)
	}
	s.poolCat[pool] = false
	s.catPools--
	s.trace.Emit(obs.TraceEvent{T: s.eng.Now(), Kind: obs.EvPoolHeal, Pool: pool})
	s.refreshMemberLost(pool)
	// New damage may already have re-accumulated during the window.
	if p.LostStripes() > 0 {
		s.onCatastrophic(pool)
	}
}

// markWholePool flips a blind method's pool-is-lost view: every stripe
// of the pool counts as a lost member while the pool is catastrophic.
func (s *System) markWholePool(pool int, lost bool) {
	for st := range s.poolCfg.Stripes() {
		s.setMemberLost(pool, st, lost)
	}
}

// refreshMemberLost reconciles the pool's actual lost stripes with the
// network accounting (no-op for a blind method while the pool-is-lost
// view holds).
func (s *System) refreshMemberLost(pool int) {
	if s.cfg.Method.Blind() && s.poolCat[pool] {
		return
	}
	p, S := s.pools[pool].Pool, s.poolCfg.Stripes()
	pl := s.cfg.Params.PL
	for st, counted := range s.memberLost[pool*S : (pool+1)*S] {
		actual := p.StripeLostCount(st) > pl
		if actual != counted {
			s.setMemberLost(pool, st, actual)
		}
	}
}

// setMemberLost updates one local stripe's lost-member flag and the
// network stripe counters, recording loss episodes.
func (s *System) setMemberLost(pool, stripe int, lost bool) {
	i := pool*s.poolCfg.Stripes() + stripe
	if s.memberLost[i] == lost {
		return
	}
	s.memberLost[i] = lost
	if lost {
		s.poolLost[pool]++
	} else {
		s.poolLost[pool]--
	}
	ns := s.netOf[i]
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
