package poolsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"mlec/internal/failure"
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
	"mlec/internal/sim"
)

// SplitConfig controls the multilevel-splitting (RESTART) estimator of
// the catastrophic-pool rate. Levels are defined by the number of
// concurrently failed disks; level-i trajectories run until either a new
// failure arrives (up-transition, possibly catastrophic) or the pool
// heals completely (down).
type SplitConfig struct {
	// TrajectoriesPerLevel is the number of trajectories simulated at
	// each level (default 20000).
	TrajectoriesPerLevel int
	// MaxLevel caps the cascade depth (default pl+3): contributions
	// from deeper levels are O((λ·T_repair)^depth) smaller.
	MaxLevel int
	Seed     int64
	// CheckpointPath, when non-empty, persists the estimator state
	// after every completed level (versioned, atomic; see runctl) and
	// resumes from a compatible checkpoint at the same path. A resumed
	// run produces statistics identical to an uninterrupted one: the
	// per-trajectory RNG streams are pure functions of (Seed, level,
	// index), so only the level-entry snapshots and completed tallies
	// need to persist.
	CheckpointPath string

	// onLevelDone, when set, runs after each completed level (after the
	// checkpoint write). Test hook for deterministic mid-run
	// cancellation.
	onLevelDone func(level int)
}

// SplitResult is the splitting estimate.
type SplitResult struct {
	// LevelProbs[i] = P(a new failure arrives before full heal | the
	// pool just entered i+1 concurrent failures), for i = 0, 1, ….
	LevelProbs []float64
	// CatFractions[i] = P(the up-transition out of level i+1 is
	// catastrophic | entered level i+1).
	CatFractions []float64
	// LevelTrajectories[i] is the number of trajectories that produced
	// the level-(i+1) tallies.
	LevelTrajectories []int
	// CatRatePerPoolHour is the assembled catastrophic event rate.
	CatRatePerPoolHour float64
	// CatRateLo and CatRateHi bound the rate at 95% confidence:
	// ±1.96 standard errors from the per-level binomial variances
	// (weight uncertainty neglected), with CatRateHi additionally
	// including the exact upper bound on the unexplored deeper levels
	// (the residual splitting weight — every deeper cascade is at most
	// certain). A Partial run therefore reports an honestly widened
	// interval: the missing levels show up as tail slack in CatRateHi.
	CatRateLo, CatRateHi float64
	// Samples holds pool states at (simulated) catastrophic events.
	Samples []CatSample
	// EntryShortfall reports levels where the previous level produced
	// fewer distinct entry snapshots than trajectories (resampling with
	// replacement was used).
	EntryShortfall []int
	// Partial marks an estimate cut short by context cancellation or
	// deadline: levels beyond the last completed one are missing and
	// CatRateHi carries the full unexplored-tail bound. A partially
	// simulated level is discarded (its trajectories replay from the
	// checkpoint on resume), keeping resumed runs deterministic.
	Partial bool
}

// CatProbPerPoolYear converts the rate to an annual per-pool probability.
func (r SplitResult) CatProbPerPoolYear() float64 {
	return -math.Expm1(-r.CatRatePerPoolHour * failure.HoursPerYear)
}

type trajectoryOutcome int

const (
	outcomeDown trajectoryOutcome = iota
	outcomeUp
	outcomeCat
)

// trajSeed derives the pure per-trajectory RNG stream: identical
// regardless of worker scheduling, which is what makes both run-to-run
// reproducibility and checkpoint-resume determinism possible.
func trajSeed(seed int64, level, i int) int64 {
	return seed ^ (int64(level) << 32) ^ int64(i)*0x9e3779b9
}

// Split estimates the catastrophic-pool rate by multilevel splitting.
// The failure process must be exponential (memoryless) — level
// trajectories re-arm failure clocks at entry, which is only valid
// without ageing. Split is SplitContext without cancellation.
func Split(cfg Config, ttf failure.Exponential, sc SplitConfig) (SplitResult, error) {
	return SplitContext(context.Background(), cfg, ttf, sc)
}

// SplitContext is Split under run control: ctx cancellation (or
// deadline) stops the campaign at the next trajectory boundary, drains
// in-flight trajectories, and returns the completed levels as a Partial
// estimate with a widened confidence interval. With a CheckpointPath
// the run resumes from the last completed level instead of restarting.
func SplitContext(ctx context.Context, cfg Config, ttf failure.Exponential, sc SplitConfig) (SplitResult, error) {
	if err := cfg.Validate(); err != nil {
		return SplitResult{}, err
	}
	n := sc.TrajectoriesPerLevel
	if n <= 0 {
		n = 20000
	}
	maxLevel := sc.MaxLevel
	if maxLevel <= 0 {
		maxLevel = cfg.Parity + 3
	}
	if maxLevel < cfg.Parity+1 {
		return SplitResult{}, fmt.Errorf("poolsim: MaxLevel %d below pl+1 = %d", maxLevel, cfg.Parity+1)
	}
	base, err := NewPool(cfg, sc.Seed)
	if err != nil {
		return SplitResult{}, err
	}

	partial := false
	beta0 := float64(cfg.Disks) * ttf.RatePerHour // rate of 0 → 1 transitions

	// st is the estimator's running state, kept as the checkpoint it is
	// loaded from and saved as at every level boundary.
	st := splitCheckpoint{NextLevel: 1, Weight: 1}
	// scratch checks a checkpoint's entries, or builds level 1's.
	scratch := NewMachine(base, sim.New())
	fingerprint := splitFingerprint(cfg, ttf, n, maxLevel, sc.Seed)
	resumed := false
	if sc.CheckpointPath != "" {
		resumed, err = runctl.LoadCheckpoint(sc.CheckpointPath, splitCheckpointKind, fingerprint, &st)
		if err != nil {
			return SplitResult{}, err
		}
		// A checkpoint that fails validation must not seed a campaign:
		// reject it here, not a level's worth of work later.
		for i, e := range st.Entries {
			if err := scratch.Restore(e); err != nil {
				return SplitResult{}, fmt.Errorf("poolsim: checkpoint %s: entry %d: %w", sc.CheckpointPath, i, err)
			}
		}
	}
	if !resumed {
		// Level-1 entries: fresh pool with one random failed disk.
		rng := rand.New(rand.NewSource(sc.Seed ^ 0x51717))
		st.Entries = make([]Snapshot, 0, n)
		for i := 0; i < n; i++ {
			if err := scratch.Restore(Snapshot{}); err != nil {
				return SplitResult{}, err
			}
			scratch.Fail(base.RandomHealthyDisk(rng))
			st.Entries = append(st.Entries, scratch.Snapshot())
		}
	}
	startLevel := st.NextLevel

	// Observability: a progress task plus the trajectory counter. All
	// updates are write-only from the engine's point of view — nothing below
	// ever reads them back — so they cannot perturb the estimate.
	task := obs.Progress.StartTask("poolsim.split", int64(maxLevel)*int64(n))
	defer task.Finish()
	task.SetDone(int64(startLevel-1) * int64(n))
	trialCount := obs.Default.Counter("poolsim_split_trajectories_total")
	campSpan := obs.StartSpan("poolsim.split")
	lastLevel := startLevel - 1
	defer func() {
		if campSpan != nil {
			campSpan.EndNote(fmt.Sprintf("levels %d..%d seed %d", startLevel, lastLevel, sc.Seed))
		}
	}()

	for level := startLevel; level <= maxLevel && len(st.Entries) > 0; level++ {
		if ctx.Err() != nil {
			partial = true
			break
		}
		entries := st.Entries
		task.SetLevel(level, maxLevel)
		levelSpan := campSpan.Child("poolsim.level")
		// Trajectories are independent given the entry set; run them on
		// all CPUs through the runctl pool so a panicking trajectory
		// surfaces as a typed error with its RNG stream instead of
		// killing the campaign. Per-trajectory RNGs are seeded by
		// (level, index) so the result is identical regardless of
		// scheduling.
		slots := make([]trajResult, n)
		pool := runctl.NewPool(ctx)
		//lint:allow walltime the span is an opaque obs handle the pool only hands back to obs for stream children; no wall-clock value reaches the simulation
		pool.SetParentSpan(levelSpan)
		workers := runtime.NumCPU()
		if workers > n {
			workers = n
		}
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wstream := trajSeed(sc.Seed, level, lo)
			pool.Go(wstream, func(ctx context.Context) error {
				// Chaos hook: a fault here (panic or error) is healed by
				// the pool re-running this worker from the same stream,
				// recomputing identical slots — the injection point the
				// chaos CI matrix drives.
				if err := faultinject.Fire("poolsim.worker", wstream); err != nil {
					return err
				}
				// The worker's one machine: every trajectory restores its
				// entry onto it.
				tr := newTrajectory(base.Clone(), ttf)
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return nil // drain: finish nothing new, keep what's done
					}
					stream := trajSeed(sc.Seed, level, i)
					var restoreErr error
					if err := runctl.Guard(stream, func() {
						trng := rand.New(rand.NewSource(stream))
						restoreErr = tr.run(entries[trng.Intn(len(entries))], trng)
					}); err != nil {
						return err
					}
					if restoreErr != nil {
						return restoreErr
					}
					slots[i] = tr.trajResult
					trialCount.Inc()
					task.Add(1)
				}
				return nil
			})
		}
		if err := pool.Wait(); err != nil {
			return SplitResult{}, err
		}
		if ctx.Err() != nil {
			// The level is incomplete; discard it so the tallies stay a
			// pure function of (seed, level) and resume replays it.
			if levelSpan != nil {
				levelSpan.EndNote(fmt.Sprintf("level %d cancelled", level))
			}
			partial = true
			break
		}

		var ups, cats int
		nextEntries := make([]Snapshot, 0, n)
		for i := 0; i < n; i++ {
			switch slots[i].outcome {
			case outcomeUp:
				ups++
				nextEntries = append(nextEntries, slots[i].next)
			case outcomeCat:
				ups++
				cats++
				st.Samples = append(st.Samples, slots[i].cat)
			}
		}
		pUp := float64(ups) / float64(n)
		catFrac := float64(cats) / float64(n)
		pCont := float64(ups-cats) / float64(n)
		st.LevelProbs = append(st.LevelProbs, pUp)
		st.CatFractions = append(st.CatFractions, catFrac)
		st.LevelTrajectories = append(st.LevelTrajectories, n)
		st.RateSum += st.Weight * catFrac
		st.VarSum += st.Weight * st.Weight * catFrac * (1 - catFrac) / float64(n)
		st.Weight *= pCont
		if len(nextEntries) < n/10 {
			st.EntryShortfall = append(st.EntryShortfall, level+1)
		}
		st.NextLevel, st.Entries = level+1, nextEntries

		// Level-boundary observability: entry occupancy, the running CI
		// width and a level-promotion trace event (the level's wall time
		// is its poolsim.level span). Single-threaded here, so the trace
		// stays deterministic.
		occ := float64(len(nextEntries)) / float64(n)
		task.SetOccupancy(occ)
		ciw := 2 * 1.96 * beta0 * math.Sqrt(st.VarSum)
		task.SetCIWidth(ciw)
		obs.Trace.Emit(obs.TraceEvent{
			Kind:  obs.EvLevelPromotion,
			Level: level,
			Note:  fmt.Sprintf("up=%d cat=%d entries=%d", ups, cats, len(nextEntries)),
		})

		if sc.CheckpointPath != "" {
			if err := runctl.SaveCheckpoint(sc.CheckpointPath, splitCheckpointKind, fingerprint, st); err != nil {
				return SplitResult{}, err
			}
		}
		if sc.onLevelDone != nil {
			sc.onLevelDone(level)
		}
		lastLevel = level
		if levelSpan != nil {
			levelSpan.EndNote(fmt.Sprintf("level %d up=%d cat=%d entries=%d", level, ups, cats, len(nextEntries)))
		}
	}

	res := SplitResult{
		LevelProbs:         st.LevelProbs,
		CatFractions:       st.CatFractions,
		LevelTrajectories:  st.LevelTrajectories,
		CatRatePerPoolHour: beta0 * st.RateSum,
		Samples:            st.Samples,
		EntryShortfall:     st.EntryShortfall,
		Partial:            partial,
	}
	se := beta0 * math.Sqrt(st.VarSum)
	// The residual weight bounds everything not simulated — the levels
	// beyond the loop's end contribute at most weight (each deeper
	// cascade reaches catastrophe with probability ≤ 1). For complete
	// runs this is the (tiny) truncation bound at MaxLevel; for Partial
	// runs it is the honest price of the missing levels.
	tail := beta0 * st.Weight
	res.CatRateLo = res.CatRatePerPoolHour - 1.96*se
	if res.CatRateLo < 0 {
		res.CatRateLo = 0
	}
	res.CatRateHi = res.CatRatePerPoolHour + 1.96*se + tail
	return res, nil
}

// splitCheckpointKind names split checkpoints inside the runctl
// envelope; LoadCheckpoint rejects files written by other estimators.
const splitCheckpointKind = "poolsim.split"

// splitFingerprint binds a checkpoint to the exact campaign that wrote
// it: any change to the pool geometry, failure rate, trajectory budget,
// or seed changes every RNG stream, so resuming across it would mix
// incompatible statistics.
func splitFingerprint(cfg Config, ttf failure.Exponential, n, maxLevel int, seed int64) string {
	return fmt.Sprintf("cfg=%+v|lambda=%g|n=%d|maxLevel=%d|seed=%d",
		cfg, ttf.RatePerHour, n, maxLevel, seed)
}

// splitCheckpoint is the level-boundary estimator state. Together with
// the (seed, level, index)-pure trajectory RNGs it is everything needed
// to continue the campaign exactly as an uninterrupted run would.
type splitCheckpoint struct {
	NextLevel         int         `json:"next_level"`
	Weight            float64     `json:"weight"`   // Π P_j over completed levels
	RateSum           float64     `json:"rate_sum"` // Σ w_i·catFrac_i, pre-β0
	VarSum            float64     `json:"var_sum"`  // Σ w_i²·p_i(1−p_i)/n_i, pre-β0²
	LevelProbs        []float64   `json:"level_probs"`
	CatFractions      []float64   `json:"cat_fractions"`
	LevelTrajectories []int       `json:"level_trajectories"`
	EntryShortfall    []int       `json:"entry_shortfall,omitempty"`
	Samples           []CatSample `json:"samples,omitempty"`
	Entries           []Snapshot  `json:"entries"`
}

// trajectory is a splitting worker's scratch: one machine, restored to
// an entry snapshot for every trajectory, under one aggregate failure
// clock — with h healthy disks and memoryless failures the next arrival
// is Exp(h·λ), drawn again whenever h changes.
type trajectory struct {
	m      *Machine
	lambda float64
	rng    *rand.Rand
	failEv *sim.Event
	onFail func() // tr.fail, bound once

	trajResult // of the last run; outcomeDown while it is undecided
}

// trajResult is what one trajectory came to.
type trajResult struct {
	outcome trajectoryOutcome
	next    Snapshot  // outcomeUp: the entry into the next level
	cat     CatSample // outcomeCat
}

func newTrajectory(pool *Pool, ttf failure.Exponential) *trajectory {
	tr := &trajectory{m: NewMachine(pool, sim.New()), lambda: ttf.RatePerHour}
	tr.onFail = tr.fail
	tr.m.OnCat = func() { tr.outcome, tr.cat = outcomeCat, tr.m.CatSample() }
	return tr
}

// run simulates from the entry snapshot until the pool heals (down), a
// new failure arrives (up), or that failure is catastrophic.
func (tr *trajectory) run(entry Snapshot, rng *rand.Rand) error {
	if err := tr.m.Restore(entry); err != nil {
		return err
	}
	tr.rng, tr.failEv, tr.trajResult = rng, nil, trajResult{}

	pool := tr.m.Pool
	lastHealthy := pool.Cfg.Disks - pool.FailedDisks()
	tr.armFailure()
	// A damaged pool always has a detection or a repair pending, so the
	// queue cannot drain before the pool heals; if it did, the outcome
	// stays down, failing safe.
	for tr.outcome == outcomeDown && !pool.Healthy() && tr.m.eng.Step() {
		if h := pool.Cfg.Disks - pool.FailedDisks(); h != lastHealthy && tr.outcome == outcomeDown {
			lastHealthy = h
			tr.armFailure()
		}
	}
	return nil
}

// armFailure draws the next arrival for the current healthy count.
func (tr *trajectory) armFailure() {
	tr.m.eng.Cancel(tr.failEv)
	tr.failEv = nil
	healthy := tr.m.Pool.Cfg.Disks - tr.m.Pool.FailedDisks()
	if healthy <= 0 {
		return
	}
	delay := tr.rng.ExpFloat64() / (float64(healthy) * tr.lambda)
	tr.failEv = tr.m.eng.Schedule(delay, tr.onFail)
}

// fail is the arrival: it ends the trajectory, up or catastrophic.
func (tr *trajectory) fail() {
	tr.failEv = nil
	tr.outcome = outcomeUp
	tr.m.Fail(tr.m.Pool.RandomHealthyDisk(tr.rng)) // OnCat turns up into cat
	if tr.outcome == outcomeUp {
		tr.next = tr.m.Snapshot()
	}
}
