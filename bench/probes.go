package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mlec"
	"mlec/internal/burst"
	"mlec/internal/failure"
	"mlec/internal/gf256"
	"mlec/internal/lrc"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/rs"
	"mlec/internal/runctl"
	"mlec/internal/syssim"
	"mlec/internal/topology"
)

// prober runs the per-layer probes of a traced run. Every probe times
// calls into the program's public entry points from outside — only the
// ones bench/README.md lists as the stable call surface — and records a
// span under the probes root, so the trace shows what each cost.
type prober struct {
	seed    int64
	sc      scale
	tr      *tracer
	root    int
	tmpDir  string
	metrics map[string]float64
	errs    []error
}

// probe runs fn as one probe of the given layer; a probe that errors is
// reported by the run and leaves its metrics unset.
func (pr *prober) probe(layer, name string, fn func() error) {
	runtime.GC()
	id := pr.tr.begin(layer, name, pr.root)
	err := fn()
	pr.tr.end(id)
	if err != nil {
		pr.errs = append(pr.errs, fmt.Errorf("probe %s: %w", name, err))
	}
}

// reps scales a probe's repetition count down for the unit tests.
func (pr *prober) reps(n int) int {
	if pr.sc == tiny {
		return max(1, n/20)
	}
	return n
}

// runProbes executes every probe and returns the metrics they produced.
func runProbes(seed int64, sc scale, tr *tracer, tmpDir string) (map[string]float64, []error) {
	pr := &prober{seed: seed, sc: sc, tr: tr, tmpDir: tmpDir, metrics: map[string]float64{}}
	pr.root = tr.begin("bench", "probes", 0)
	pr.probe("analytic", "stage2", pr.analytic)
	pr.probe("runctl", "dispatch", pr.runctlDispatch)
	pr.probe("runctl", "checkpoint", pr.runctlCheckpoint)
	pr.probe("poolsim", "split", pr.poolsimSplit)
	pr.probe("poolsim", "longrun", pr.poolsimLongRun)
	pr.probe("syssim", "construct+loop", pr.syssim)
	pr.probe("burst", "pdl", pr.burstPDL)
	pr.probe("burst", "parts", pr.burstParts)
	pr.probe("rs", "encode", pr.rsEncode)
	pr.probe("rs", "reconstruct", pr.rsReconstruct)
	pr.probe("lrc", "encode+reconstruct", pr.lrcAndXor)
	pr.probe("cluster", "exercise", pr.cluster)
	tr.end(pr.root)
	return pr.metrics, pr.errs
}

// paperPool returns the poolsim configuration of the paper's local pool:
// 20 clustered disks or 120 declustered ones under (17+3).
func paperPool(clustered bool) poolsim.Config {
	topo, params := topology.Default(), placement.DefaultParams()
	cfg := poolsim.Config{
		Disks: topo.DisksPerEnclosure, Width: params.LocalWidth(), Parity: params.PL,
		Clustered:           clustered,
		SegmentsPerDisk:     120,
		DiskCapacityBytes:   topo.DiskCapacityBytes,
		DiskRepairBW:        topo.DiskRepairBandwidth(),
		DetectionDelayHours: failure.DefaultDetectionDelayHours,
	}
	if clustered {
		cfg.Disks = params.LocalWidth()
	}
	return cfg
}

func (pr *prober) analytic() error {
	// The same four estimates durability_split makes, stage 1 from the
	// Markov chain instead of the simulation: what is left is stage 2.
	const inner = 100
	var err error
	pr.metrics["analytic.stage2_s"] = medianSeconds(pr.reps(20), func() {
		for i := 0; i < inner; i++ {
			for _, s := range mlec.AllSchemes {
				if _, e := mlec.EstimateDurabilityContext(context.Background(), mlec.DefaultTopology(), mlec.DefaultParams(), s,
					mlec.DurabilityOptions{AFR: 0.01}); e != nil {
					err = e
				}
			}
		}
	}) / inner
	return err
}

func (pr *prober) runctlDispatch() error {
	const streams = 256
	var err error
	s := medianSeconds(pr.reps(40), func() {
		pool := runctl.NewPool(context.Background())
		for i := int64(0); i < streams; i++ {
			pool.Go(i, func(context.Context) error { return nil })
		}
		if e := pool.Wait(); e != nil {
			err = e
		}
	})
	pr.metrics["runctl.dispatch_us_per_stream"] = s / streams * 1e6
	return err
}

// levelCheckpoint has the shape and size of one splitting level's
// checkpoint: a few thousand entry snapshots of per-disk state.
type levelCheckpoint struct {
	NextLevel int
	Weight    float64
	Entries   [][]int32
	Detect    []map[int]float64
}

func (pr *prober) runctlCheckpoint() error {
	rng := rand.New(rand.NewSource(pr.seed))
	ck := levelCheckpoint{NextLevel: 3, Weight: 1e-5}
	for i := 0; i < 2000; i++ {
		state := make([]int32, 120)
		for j := range state {
			state[j] = int32(rng.Intn(3))
		}
		ck.Entries = append(ck.Entries, state)
		ck.Detect = append(ck.Detect, map[int]float64{rng.Intn(120): rng.Float64()})
	}
	dir, err := os.MkdirTemp(pr.tmpDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "level.ckpt")
	pr.metrics["runctl.checkpoint_save_ms"] = 1e3 * medianSeconds(5, func() {
		if e := runctl.SaveCheckpoint(path, "bench.level", "fp", ck); e != nil {
			err = e
		}
	})
	pr.metrics["runctl.checkpoint_load_ms"] = 1e3 * medianSeconds(5, func() {
		var back levelCheckpoint
		ok, e := runctl.LoadCheckpoint(path, "bench.level", "fp", &back)
		if e != nil {
			err = e
		} else if !ok || len(back.Entries) != len(ck.Entries) {
			err = fmt.Errorf("checkpoint did not load back")
		}
	})
	return err
}

func (pr *prober) poolsimSplit() error {
	ttf, err := failure.NewExponentialAFR(0.01)
	if err != nil {
		return err
	}
	n := 1500
	if pr.sc == tiny {
		n = 100
	}
	trajC := engineCounter("poolsim.trajectories")
	for _, clustered := range []bool{true, false} {
		cfg := paperPool(clustered)
		before := trajC.Value()
		var res poolsim.SplitResult
		t0 := time.Now()
		bytes, _ := allocOf(func() {
			res, err = poolsim.SplitContext(context.Background(), cfg, ttf,
				poolsim.SplitConfig{TrajectoriesPerLevel: n, Seed: pr.seed})
		})
		secs := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		traj := float64(trajC.Value() - before)
		if clustered {
			pr.metrics["poolsim.split_cp_traj_per_s"] = traj / secs
			// Exact for a seed: the interval of the estimate itself.
			if res.CatRatePerPoolHour > 0 {
				pr.metrics["poolsim.split_ci_rel_width"] = (res.CatRateHi - res.CatRateLo) / res.CatRatePerPoolHour
			}
		} else {
			pr.metrics["poolsim.split_dp_traj_per_s"] = traj / secs
			pr.metrics["poolsim.split_alloc_kb_per_traj"] = bytes / 1e3 / traj
		}
	}
	return nil
}

func (pr *prober) poolsimLongRun() error {
	// An accelerated failure rate keeps the pool busy failing and
	// rebuilding: no splitting, no cloning, no worker pool — the event
	// core and the pool state machine alone.
	ttf, err := failure.NewExponentialAFR(0.3)
	if err != nil {
		return err
	}
	for _, clustered := range []bool{true, false} {
		cfg := paperPool(clustered)
		years := 2000.0
		if !clustered {
			years = 250
		}
		if pr.sc == tiny {
			years /= 50
		}
		var st poolsim.RunStats
		t0 := time.Now()
		bytes, _ := allocOf(func() {
			st, err = poolsim.LongRunContext(context.Background(), cfg, ttf, years, pr.seed)
		})
		secs := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if st.DiskFailures == 0 {
			return fmt.Errorf("long run saw no disk failure")
		}
		if clustered {
			pr.metrics["poolsim.longrun_cp_failures_per_s"] = float64(st.DiskFailures) / secs
			pr.metrics["poolsim.longrun_alloc_b_per_failure"] = bytes / float64(st.DiskFailures)
		} else {
			pr.metrics["poolsim.longrun_dp_failures_per_s"] = float64(st.DiskFailures) / secs
		}
	}
	return nil
}

func (pr *prober) syssim() error {
	ttf, err := failure.NewExponentialAFR(0.01)
	if err != nil {
		return err
	}
	topo, years := topology.Default(), 20.0
	if pr.sc == tiny { // a small system for long enough that the loop outlasts construction
		topo.Racks, topo.EnclosuresPerRack, years = 12, 1, 200
	}
	eventsC := engineCounter("syssim.events")
	for _, s := range []placement.Scheme{placement.SchemeCC, placement.SchemeDD} {
		cfg := syssim.Config{Topo: topo, Params: placement.DefaultParams(), Scheme: s, Method: mlec.RepairMinimum, TTF: ttf}
		run := func(years float64) (secs, bytes float64, err error) {
			t0 := time.Now()
			bytes, _ = allocOf(func() { _, err = syssim.RunContext(context.Background(), cfg, years, pr.seed) })
			return time.Since(t0).Seconds(), bytes, err
		}
		// A 1e-6-year run constructs the system and simulates nothing;
		// the median of three, because the loop's time is a difference.
		var constructB float64
		constructS := medianSeconds(3, func() {
			if _, b, e := run(1e-6); e != nil {
				err = e
			} else {
				constructB = b
			}
		})
		if err != nil {
			return err
		}
		before := eventsC.Value()
		runS, runB, err := run(years)
		if err != nil {
			return err
		}
		events := float64(eventsC.Value() - before)
		loopS := runS - constructS
		if events == 0 || loopS <= 0 {
			return fmt.Errorf("syssim %v: %g events in %g s of loop", s, events, loopS)
		}
		if s.Local == placement.Clustered {
			pr.metrics["syssim.construct_cp_s"] = constructS
			pr.metrics["syssim.loop_cp_events_per_s"] = events / loopS
			pr.metrics["syssim.loop_alloc_b_per_event"] = max(0, runB-constructB) / events
		} else {
			pr.metrics["syssim.construct_dp_s"] = constructS
			pr.metrics["syssim.construct_alloc_mb"] = constructB / 1e6
			pr.metrics["syssim.loop_dp_events_per_s"] = events / loopS
		}
	}
	return nil
}

func (pr *prober) burstPDL() error {
	topo, params := topology.Default(), placement.DefaultParams()
	l, err := placement.NewLayout(topo, params, placement.SchemeDD)
	if err != nil {
		return err
	}
	sl, err := placement.NewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, placement.LocalDp)
	if err != nil {
		return err
	}
	ll, err := placement.NewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	if err != nil {
		return err
	}
	cells := []struct {
		metric       string
		ev           burst.Evaluator
		x, y, trials int
	}{
		{"burst.mlec_localized_trials_per_s", burst.NewMLECEvaluator(l), 3, 28, 8192},
		{"burst.mlec_scattered_trials_per_s", burst.NewMLECEvaluator(l), 41, 60, 384},
		{"burst.slec_trials_per_s", burst.NewSLECEvaluator(sl), 11, 28, 2048},
		{"burst.lrc_trials_per_s", burst.NewLRCEvaluator(ll, pr.seed), 11, 28, 2048},
	}
	for _, c := range cells {
		trials := max(64, pr.reps(c.trials))
		var res burst.Result
		t0 := time.Now()
		bytes, _ := allocOf(func() {
			res, err = burst.PDLContext(context.Background(), c.ev, c.x, c.y, trials, pr.seed, "")
		})
		secs := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if res.Trials != trials {
			return fmt.Errorf("%s: %d of %d trials", c.metric, res.Trials, trials)
		}
		pr.metrics[c.metric] = float64(trials) / secs
		if c.x >= 31 {
			pr.metrics["burst.scattered_alloc_kb_per_trial"] = bytes / 1e3 / float64(trials)
		}
	}
	return nil
}

func (pr *prober) burstParts() error {
	topo, params := topology.Default(), placement.DefaultParams()
	// Sub-microsecond calls are timed a thousand at a time.
	const inner = 1000
	var l *placement.Layout
	var err error
	pr.metrics["placement.newlayout_ms"] = 1e3 / inner * medianSeconds(pr.reps(40), func() {
		for i := 0; i < inner && err == nil; i++ {
			l, err = placement.NewLayout(topo, params, placement.SchemeDD)
		}
	})
	if err != nil {
		return err
	}
	ev := burst.NewMLECEvaluator(l)
	rng := rand.New(rand.NewSource(pr.seed))
	dpr := topo.DisksPerRack()
	var localized, scattered *burst.BurstLayout
	pr.metrics["burst.sample_layout_us"] = 1e6 * medianSeconds(pr.reps(200), func() {
		if scattered, err = burst.SampleLayout(rng, topo.Racks, dpr, 41, 60); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	if localized, err = burst.SampleLayout(rng, topo.Racks, dpr, 3, 28); err != nil {
		return err
	}
	var sink float64
	condPDL := func(b *burst.BurstLayout) float64 {
		return 1e6 / inner * medianSeconds(pr.reps(40), func() {
			for i := 0; i < inner; i++ {
				sink += ev.ConditionalPDL(b)
			}
		})
	}
	pr.metrics["burst.cond_pdl_localized_us"] = condPDL(localized)
	pr.metrics["burst.cond_pdl_scattered_us"] = condPDL(scattered)
	if sink < 0 {
		return fmt.Errorf("negative conditional PDL")
	}
	sl, err := placement.NewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, placement.LocalCp)
	if err != nil {
		return err
	}
	pr.metrics["burst.exact_dp_ms"] = 1e3 * medianSeconds(pr.reps(40), func() {
		if _, e := burst.ExactLocalCpPDL(sl, 21, 60); e != nil {
			err = e
		}
	})
	return err
}

// probeShardBytes is the shard size of every codec probe: 128 KiB, so a
// (10+2) stripe is 1.5 MiB and stays in the last-level cache.
const probeShardBytes = 128 << 10

func (pr *prober) rsEncode() error {
	rng := rand.New(rand.NewSource(pr.seed))
	var err error
	// rate times op on a fresh (k+p) stripe and returns user MB/s.
	rate := func(k, p, reps int, op func(c *rs.Codec, set shardSet) error) float64 {
		c, e := rs.New(k, p)
		if e != nil {
			err = e
			return 0
		}
		set := newShardSet(rng, k, p, probeShardBytes)
		if e := c.Encode(set); e != nil {
			err = e
			return 0
		}
		s := medianSeconds(pr.reps(reps), func() {
			if e := op(c, set); e != nil {
				err = e
			}
		})
		return float64(k*probeShardBytes) / 1e6 / s
	}
	encode := func(c *rs.Codec, set shardSet) error { return c.Encode(set) }
	pr.metrics["rs.encode_10_2_mb_per_s"] = rate(10, 2, 120, encode)
	pr.metrics["rs.encode_17_3_mb_per_s"] = rate(17, 3, 60, encode)
	// Computed, not measured, bytes: an encode multiplies every data
	// byte into every parity, k·p·shardBytes of table lookups and XORs.
	pr.metrics["rs.encode_kernel_mb_per_s"] = pr.metrics["rs.encode_17_3_mb_per_s"] * 3
	pr.metrics["rs.encode_28_12_mb_per_s"] = rate(28, 12, 10, encode)
	pr.metrics["rs.encode_parallel_17_3_mb_per_s"] = rate(17, 3, 60, func(c *rs.Codec, set shardSet) error {
		return c.EncodeParallel(set, 0)
	})
	pr.metrics["rs.verify_17_3_mb_per_s"] = rate(17, 3, 40, func(c *rs.Codec, set shardSet) error {
		ok, e := c.Verify(set)
		if e == nil && !ok {
			e = fmt.Errorf("rs 17+3 does not verify")
		}
		return e
	})
	pr.metrics["rs.new_50_10_ms"] = 1e3 * medianSeconds(pr.reps(40), func() {
		if _, e := rs.New(50, 10); e != nil {
			err = e
		}
	})
	return err
}

func (pr *prober) rsReconstruct() error {
	rng := rand.New(rand.NewSource(pr.seed + 1))
	for _, kp := range [][2]int{{10, 2}, {17, 3}} {
		k, p := kp[0], kp[1]
		c, err := rs.New(k, p)
		if err != nil {
			return err
		}
		set := newShardSet(rng, k, p, probeShardBytes)
		if err := c.Encode(set); err != nil {
			return err
		}
		// Lose p data shards, the most a stripe survives.
		lost := rng.Perm(k)[:p]
		work := make(shardSet, len(set))
		reconstruct := func() error {
			copy(work, set)
			for _, i := range lost {
				work[i] = nil
			}
			return c.Reconstruct(work)
		}
		s := medianSeconds(pr.reps(60), func() {
			if e := reconstruct(); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		for _, i := range lost {
			if string(work[i]) != string(set[i]) {
				return fmt.Errorf("rs %d+%d reconstructed shard %d wrongly", k, p, i)
			}
		}
		pr.metrics[fmt.Sprintf("rs.reconstruct_%d_%d_mb_per_s", k, p)] = float64(k*probeShardBytes) / 1e6 / s
		if k == 10 {
			const ops = 16
			bytes, mallocs := allocOf(func() {
				for i := 0; i < ops; i++ {
					if e := reconstruct(); e != nil {
						err = e
					}
				}
			})
			pr.metrics["rs.reconstruct_allocs_per_op"] = mallocs / ops
			pr.metrics["rs.reconstruct_alloc_kb_per_op"] = bytes / 1e3 / ops
		}
	}
	return nil
}

func (pr *prober) lrcAndXor() error {
	rng := rand.New(rand.NewSource(pr.seed + 2))
	c, err := lrc.New(14, 2, 4)
	if err != nil {
		return err
	}
	set := newShardSet(rng, 14, 6, probeShardBytes)
	s := medianSeconds(pr.reps(40), func() {
		if e := c.Encode(set); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	pr.metrics["lrc.encode_14_2_4_mb_per_s"] = 14 * probeShardBytes / 1e6 / s
	// One lost data shard repairs inside its local group: the MB/s are
	// the bytes that repair reads, group size × shard, per second.
	work := make(shardSet, len(set))
	s = medianSeconds(pr.reps(200), func() {
		copy(work, set)
		work[3] = nil
		if e := c.Reconstruct(work); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	if string(work[3]) != string(set[3]) {
		return fmt.Errorf("lrc local repair rebuilt the shard wrongly")
	}
	pr.metrics["lrc.reconstruct_local_mb_per_s"] = float64(c.GroupSize()*probeShardBytes) / 1e6 / s

	// 128 KiB source and destination: both stay in the L2 cache, so this
	// is the kernel's rate, not memory bandwidth.
	src, dst := randomBytes(rng, probeShardBytes), randomBytes(rng, probeShardBytes)
	const xors = 64
	s = medianSeconds(pr.reps(100), func() {
		for i := 0; i < xors; i++ {
			gf256.XorSlice(src, dst)
		}
	})
	pr.metrics["gf256.xor_mb_per_s"] = xors * probeShardBytes / 1e6 / s
	return nil
}

func (pr *prober) cluster() error {
	in := newClusterInputs(pr.seed, pr.sc)
	mb := in.userMB()
	for _, method := range []mlec.RepairMethod{mlec.RepairAll, mlec.RepairMinimum} {
		var sys *mlec.System
		var err error
		writeS := medianSeconds(1, func() { sys, err = in.build(mlec.SchemeCD) })
		if err != nil {
			return err
		}
		healthyS := medianSeconds(3, func() { _, err = in.readAll(sys) })
		if err != nil {
			return err
		}
		in.damage(sys)
		degradedS := medianSeconds(3, func() { _, err = in.readAll(sys) })
		if err != nil {
			return err
		}
		sys.ResetTraffic()
		repairS := medianSeconds(1, func() { err = sys.Repair(method) })
		if err != nil {
			return err
		}
		xrack := sys.Traffic().CrossRackTotal()
		if method == mlec.RepairAll {
			pr.metrics["cluster.write_mb_per_s"] = mb / writeS
			pr.metrics["cluster.read_healthy_mb_per_s"] = mb / healthyS
			pr.metrics["cluster.read_degraded_mb_per_s"] = mb / degradedS
			pr.metrics["cluster.repair_rall_ms"] = repairS * 1e3
			pr.metrics["cluster.xrack_bytes_rall"] = xrack
			continue
		}
		pr.metrics["cluster.repair_rmin_ms"] = repairS * 1e3
		pr.metrics["cluster.xrack_bytes_rmin"] = xrack
		var rep mlec.ScrubReport
		scrubS := medianSeconds(3, func() { rep, err = sys.Scrub() })
		if err != nil {
			return err
		}
		if !rep.Clean() {
			return fmt.Errorf("scrub after repair: %+v", rep)
		}
		pr.metrics["cluster.scrub_mb_per_s"] = mb / scrubS
	}
	return nil
}
