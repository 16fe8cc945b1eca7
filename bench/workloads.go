package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"

	"mlec"
	"mlec/internal/burst"
	"mlec/internal/placement"
)

// scale selects the full-size pass the benchmark measures or the tiny one
// the unit tests run in a few seconds.
type scale int

const (
	full scale = iota
	tiny
)

// passFunc runs a workload once through p. Passes are closed-loop and run
// on the benchmark goroutine alone; the engines fan out to
// runtime.NumCPU() workers on their own.
type passFunc func(p *passCtx)

// workload is one set of inputs the benchmark runs. prepare generates the
// inputs from the seed and constructs what passes reuse; the program sees
// only those inputs.
type workload struct {
	name string
	// unit is the work unit of work_per_s and allocs_per_work.
	unit    string
	why     string
	prepare func(seed int64, sc scale) (passFunc, error)
}

// workloads lists the six workloads in BENCHMARK.json's order. The `why`
// strings are BENCHMARK.json's, kept equal by the unit tests.
var workloads = []workload{
	{
		name: "paper_quick", unit: "experiments",
		why:     "north-star mix: every experiment id in Quick mode, rendered; each layer does a little and the time-boxed codec floor shows",
		prepare: preparePaperQuick,
	},
	{
		name: "durability_split", unit: "trajectories",
		why:     "poolsim + sim + runctl do the work (splitting stage 1, all four schemes); codecs, burst and syssim idle",
		prepare: prepareDurabilitySplit,
	},
	{
		name: "datacenter_sim", unit: "disk-years",
		why:     "syssim + sim event loop on the 57,600-disk datacenter, no splitting or worker pool; same event core used differently",
		prepare: prepareDatacenterSim,
	},
	{
		name: "burst_heatmap", unit: "trials",
		why:     "burst + placement only (fig5/13/16 path), localized and scattered cells; bypasses the event engine and the codecs",
		prepare: prepareBurstHeatmap,
	},
	{
		name: "codec_encode", unit: "MB",
		why:     "write side of rs/lrc/gf256 at fixed bytes per shape; every Monte-Carlo layer idle",
		prepare: prepareCodecEncode,
	},
	{
		name: "cluster_repair", unit: "MB",
		why:     "read side of the codecs (Reconstruct, Verify) under cluster's maps and traffic meters: degraded reads, four repairs, scrub",
		prepare: prepareClusterRepair,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------- paper_quick

// timeboxedIDs are the experiments that measure codec throughput "for at
// least dur": speed cannot shorten them and their renders print rates, so
// they are excluded from the determinism digest and summed apart.
var timeboxedIDs = map[string]bool{"fig11": true, "fig12": true, "fig15": true, "ablation-cores": true}

// unreproducibleIDs render differently from pass to pass on one seed and
// are excluded from the determinism digest, though not from the other
// checks. fig16 is there because burst.LRCEvaluator draws from one RNG
// shared by the batches of a cell, which run concurrently: with more than
// one batch a cell (Quick mode has two) the draw order follows the
// scheduler. The benchmark found this; fixing it is not its job.
var unreproducibleIDs = map[string]bool{"fig16": true}

// monteCarloIDs are the experiments that dominate a Quick pass; the tiny
// scale leaves them (and the time-boxed ones) out.
var monteCarloIDs = map[string]bool{"syssim": true, "fig5": true, "fig13": true, "fig16": true}

func preparePaperQuick(seed int64, sc scale) (passFunc, error) {
	var ids []string
	for _, id := range mlec.Experiments() {
		if sc == tiny && (timeboxedIDs[id] || monteCarloIDs[id]) {
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments registered")
	}
	opts := mlec.ExperimentOptions{Quick: true, Seed: seed, AFR: 0.01}
	return func(p *passCtx) {
		var rendered int
		for _, id := range ids {
			var buf bytes.Buffer
			var err error
			p.timed("experiments", id, func() {
				err = mlec.RunExperimentContext(context.Background(), id, opts, &buf)
			})
			p.ck.noErr(err, "experiment "+id)
			checkRender(p.ck, id, buf.Bytes())
			rendered += buf.Len()
			if !timeboxedIDs[id] && !unreproducibleIDs[id] {
				p.dig.str(id)
				p.dig.blob(buf.Bytes())
			}
		}
		p.work = float64(len(ids))
		p.counts["experiments.render_bytes"] = float64(rendered)
	}, nil
}

func checkRender(ck *checker, id string, render []byte) {
	ck.ok(len(bytes.TrimSpace(render)) > 0, "experiment %s rendered nothing", id)
}

// ----------------------------------------------------------- durability_split

// The Markov anchor: one more campaign, run by every set-up, on the
// clustered local pool at an AFR where 4000 trajectories a level sample
// enough catastrophes for the estimate to be held to the analytic answer.
// Over 250 seeds the Markov R_ALL PDL lay at most 0.82 orders outside the
// estimate's 95 % interval (99th percentile 0.71) and 1.35 orders from its
// value, and the interval was 2 to 4.6 times the value wide. 5 % AFR has
// less of the chain's own bias (a median of +0.2 orders against +0.4) but
// heavier tails on both (0.96 orders, 12.7 times); at the paper's 1 % no
// affordable campaign can be held to the chain (see README, Findings).
const (
	anchorAFR          = 0.10
	anchorTrajectories = 4000
	// markovOrders is how far, in orders of magnitude, the Markov answer
	// may lie outside the simulated estimate's interval: the tolerance of
	// splitting's TestRAllMatchesMarkov.
	markovOrders = 1.5
	// ciWidthCeiling bounds (Hi − Lo) ÷ value of the anchor's estimates.
	ciWidthCeiling = 10.0
)

func prepareDurabilitySplit(seed int64, sc scale) (passFunc, error) {
	topo, params := mlec.DefaultTopology(), mlec.DefaultParams()
	ctx := context.Background()
	// 3000 a level: every level of every scheme keeps entries on every
	// seed tried, so the pass's work does not depend on the seed. (More
	// buys no steadier allocation between seeds: README, Baseline.)
	trajectories := 3000
	var anchor, markov []mlec.DurabilityEstimate
	if sc == tiny {
		trajectories = 150
	} else {
		var err error
		if markov, err = mlec.EstimateDurabilityContext(ctx, topo, params, mlec.SchemeCC, mlec.DurabilityOptions{AFR: anchorAFR}); err != nil {
			return nil, err
		}
		if anchor, err = mlec.EstimateDurabilityContext(ctx, topo, params, mlec.SchemeCC,
			mlec.DurabilityOptions{UseSimulation: true, AFR: anchorAFR, Trajectories: anchorTrajectories, Seed: seed}); err != nil {
			return nil, err
		}
	}
	trajCounter := engineCounter("poolsim.trajectories")
	return func(p *passCtx) {
		before := trajCounter.Value()
		stage1 := map[placement.Kind]float64{}
		for _, s := range mlec.AllSchemes {
			var ests []mlec.DurabilityEstimate
			var err error
			p.timed("poolsim", "estimate "+s.String(), func() {
				ests, err = mlec.EstimateDurabilityContext(ctx, topo, params, s,
					mlec.DurabilityOptions{UseSimulation: true, AFR: 0.01, Trajectories: trajectories, Seed: seed})
			})
			if !p.ck.noErr(err, "EstimateDurability "+s.String()) {
				continue
			}
			checkEstimates(p.ck, s, ests)
			// Stage 1 simulates the local pool alone, so two schemes with
			// the same local placement must report the same rate.
			rate := ests[0].CatRatePerPoolHour
			if first, seen := stage1[s.Local]; seen {
				checkSameStage1(p.ck, s, rate, first)
			} else {
				stage1[s.Local] = rate
			}
			digestEstimates(p.dig, s.String(), ests)
		}
		p.work = float64(trajCounter.Value() - before)
		p.counts["poolsim.levels"] = p.work / float64(trajectories)
		if anchor != nil {
			checkEstimates(p.ck, mlec.SchemeCC, anchor)
			checkAgainstMarkov(p.ck, anchor, markov)
			digestEstimates(p.dig, "anchor", anchor)
		}
	}, nil
}

func digestEstimates(d digest, tag string, ests []mlec.DurabilityEstimate) {
	d.str(tag)
	for _, e := range ests {
		d.f64(e.CatRatePerPoolHour, e.WindowHours, e.AnnualPDL, e.Nines, e.AnnualPDLLo, e.AnnualPDLHi)
	}
}

// checkAgainstMarkov holds the anchor campaign's simulated estimates to the
// analytic ones: the R_ALL answer of the Markov chain within markovOrders
// of the simulated interval (the Markov stage 1 is the R_ALL view, so only
// that method is compared), and every interval no wider than the ceiling.
func checkAgainstMarkov(ck *checker, sim, markov []mlec.DurabilityEstimate) {
	if !ck.ok(len(sim) > 0 && len(markov) > 0 && sim[0].Method == mlec.RepairAll && markov[0].Method == mlec.RepairAll,
		"anchor: %d simulated and %d Markov estimates", len(sim), len(markov)) {
		return
	}
	slack := math.Pow(10, markovOrders)
	want := markov[0].AnnualPDL
	ck.ok(sim[0].AnnualPDLLo/slack <= want && want <= sim[0].AnnualPDLHi*slack,
		"anchor R_ALL: Markov PDL %.3g more than %.1f orders outside the simulated [%.3g, %.3g]", want, markovOrders, sim[0].AnnualPDLLo, sim[0].AnnualPDLHi)
	for _, e := range sim {
		//lint:allow cancel the width of an interval is the quantity wanted; its ends are a factor apart
		rel := (e.AnnualPDLHi - e.AnnualPDLLo) / e.AnnualPDL
		ck.ok(rel <= ciWidthCeiling, "anchor %v: interval %.3g times the value wide, ceiling %g", e.Method, rel, ciWidthCeiling)
	}
}

// checkEstimates holds one scheme's four simulated estimates to what must
// be true of them on any seed. It does not hold them to the Markov answer:
// at 1 % AFR an affordable campaign rests on a handful of sampled
// catastrophes — or none — and its estimate moves by many orders of
// magnitude from seed to seed (see README, Findings).
func checkEstimates(ck *checker, s mlec.Scheme, ests []mlec.DurabilityEstimate) {
	if !ck.ok(len(ests) == len(mlec.AllRepairMethods), "%v: %d estimates", s, len(ests)) {
		return
	}
	relWidth := math.NaN()
	for i, e := range ests {
		sampled := e.AnnualPDLLo > 0 || e.AnnualPDLHi > 0
		ck.ok(!math.IsNaN(e.Nines) && e.AnnualPDL >= 0 && e.AnnualPDL <= 1 && e.CatRatePerPoolHour >= 0 &&
			!e.Partial && (!sampled || (e.AnnualPDLLo <= e.AnnualPDL && e.AnnualPDL <= e.AnnualPDLHi && e.AnnualPDLHi <= 1)),
			"%v %v: estimate %g [%g, %g] nines %g partial %v", s, e.Method, e.AnnualPDL, e.AnnualPDLLo, e.AnnualPDLHi, e.Nines, e.Partial)
		// AllRepairMethods runs R_ALL, R_FCO, R_HYB, R_MIN: each later
		// method repairs no slower, so nines never fall.
		if i > 0 {
			ck.ok(e.Nines >= ests[i-1].Nines, "%v: %v nines %.3f below %v nines %.3f", s, e.Method, e.Nines, ests[i-1].Method, ests[i-1].Nines)
		}
		// Stage 2 maps the one stage-1 rate interval through a power of
		// the rate, so all four estimates are equally wide relative to
		// their value; an interval widened on one of them shows.
		if e.AnnualPDL > 0 {
			//lint:allow cancel the width of an interval is the quantity wanted; its ends are orders of magnitude apart
			rel := (e.AnnualPDLHi - e.AnnualPDLLo) / e.AnnualPDL
			if math.IsNaN(relWidth) {
				relWidth = rel
			}
			ck.ok(rel <= 1.001*relWidth && relWidth <= 1.001*rel, "%v %v: relative CI width %.6g, %v has %.6g", s, e.Method, rel, ests[0].Method, relWidth)
		}
	}
}

func checkSameStage1(ck *checker, s mlec.Scheme, rate, first float64) {
	//lint:allow floateq the two rates come from the same computation on the same seed and must agree to the bit
	ck.ok(rate == first, "%v: stage-1 rate %g differs from %g of the other scheme with this local placement", s, rate, first)
}

// ------------------------------------------------------------- datacenter_sim

func prepareDatacenterSim(seed int64, sc scale) (passFunc, error) {
	topo := mlec.DefaultTopology()
	// 50 years so the event loop, not the 0.1–0.35 s construction of the
	// 57,600-disk system, dominates; one scheme per local placement,
	// because with R_MIN at 1 % AFR the network level never engages and
	// the two schemes sharing a local placement do the same work.
	years := 50.0
	schemes := []mlec.Scheme{mlec.SchemeCC, mlec.SchemeDD}
	if sc == tiny {
		topo.Racks, topo.EnclosuresPerRack = 12, 1
		years = 5
	}
	const afr = 0.01
	return func(p *passCtx) {
		for _, s := range schemes {
			cfg := mlec.SimulationConfig{Topology: topo, Params: mlec.DefaultParams(), Scheme: s, Method: mlec.RepairMinimum, AFR: afr}
			var st mlec.SimulationStats
			var err error
			p.timed("syssim", "simulate "+s.String(), func() {
				st, err = mlec.SimulateContext(context.Background(), cfg, years, seed)
			})
			if !p.ck.noErr(err, "Simulate "+s.String()) {
				continue
			}
			checkSimulation(p.ck, s, st, float64(topo.TotalDisks()), afr, years)
			p.work += float64(topo.TotalDisks()) * st.SimYears
			p.dig.str(s.String())
			p.dig.f64(st.SimYears, st.CrossRackRepairBytes)
			p.dig.i64(int64(st.DiskFailures), int64(st.CatastrophicEvents), int64(st.DataLossEvents))
		}
	}, nil
}

// checkSimulation holds a full-system run to its horizon and to the number
// of disk failures the failure process implies: a Poisson count with mean
// μ = disks · (−ln(1 − AFR)) · years, accepted within 4√μ.
func checkSimulation(ck *checker, s mlec.Scheme, st mlec.SimulationStats, disks, afr, years float64) {
	//lint:allow floateq a completed run reports exactly the horizon it was given
	ck.ok(!st.Partial && st.SimYears == years, "%v: simulated %g of %g years, partial %v", s, st.SimYears, years, st.Partial)
	//lint:allow probmix disk-years times the hazard −ln(1 − AFR) is the expected count of the failure process
	mu := disks * -math.Log1p(-afr) * years
	//lint:allow probmix mu is an expected count, compared with the count observed
	ck.ok(math.Abs(float64(st.DiskFailures)-mu) <= 4*math.Sqrt(mu), "%v: %d disk failures, expected %.0f ± %.0f", s, st.DiskFailures, mu, 4*math.Sqrt(mu))
	ck.ok(st.CatastrophicEvents >= 0 && st.DataLossEvents >= 0 && st.CrossRackRepairBytes >= 0 && !math.IsInf(st.CrossRackRepairBytes, 0),
		"%v: inconsistent counts %+v", s, st)
}

// -------------------------------------------------------------- burst_heatmap

// cellClass groups heatmap columns by how scattered the burst is: sampling
// a layout over x ≥ 31 racks costs ~30× a localized one, so each class is
// its own timed operation.
type cellClass struct {
	name string
	xs   []int
}

var (
	burstClasses = []cellClass{
		{"localized", []int{1, 3}},
		{"mid", []int{11, 21}},
		{"scattered", []int{41, 60}},
	}
	burstYs = []int{12, 28, 44, 60}
)

type burstEvaluator struct {
	name string
	ev   burst.Evaluator
	// zeroLossRacks is the rack count up to which the code guarantees
	// no loss (pn for MLEC); 0 where there is no such guarantee.
	zeroLossRacks int
	// exact is the closed-form PDL of each (x, y), for Local-Cp SLEC.
	exact map[[2]int]float64
	// fresh, when set, rebuilds ev before every pass and keeps its
	// cells out of the determinism digest: burst.LRCEvaluator owns an
	// RNG that a pass advances and that concurrent batches share (see
	// unreproducibleIDs).
	fresh func() burst.Evaluator
}

func prepareBurstHeatmap(seed int64, sc scale) (passFunc, error) {
	topo, params := mlec.DefaultTopology(), mlec.DefaultParams()
	classes, trials := burstClasses, 128
	if sc == tiny {
		classes, trials = burstClasses[:2], 16
	}
	var evs []burstEvaluator
	for _, s := range placement.AllSchemes {
		l, err := placement.NewLayout(topo, params, s)
		if err != nil {
			return nil, err
		}
		evs = append(evs, burstEvaluator{name: "mlec " + s.String(), ev: burst.NewMLECEvaluator(l), zeroLossRacks: params.PN})
	}
	for _, pl := range placement.AllSLECPlacements {
		l, err := placement.NewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, pl)
		if err != nil {
			return nil, err
		}
		e := burstEvaluator{name: "slec " + pl.String(), ev: burst.NewSLECEvaluator(l)}
		if pl == placement.LocalCp {
			e.exact = map[[2]int]float64{}
			for _, c := range classes {
				for _, x := range c.xs {
					for _, y := range burstYs {
						if y < x {
							continue
						}
						v, err := burst.ExactLocalCpPDL(l, x, y)
						if err != nil {
							return nil, err
						}
						e.exact[[2]int{x, y}] = v
					}
				}
			}
		}
		evs = append(evs, e)
	}
	ll, err := placement.NewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	if err != nil {
		return nil, err
	}
	evs = append(evs, burstEvaluator{name: "lrc Dp", fresh: func() burst.Evaluator { return burst.NewLRCEvaluator(ll, seed) }})

	return func(p *passCtx) {
		for _, e := range evs {
			if e.fresh != nil {
				e.ev = e.fresh()
			}
			for _, c := range classes {
				var g *burst.Grid
				var err error
				p.timed("burst", e.name+" "+c.name, func() {
					g, err = burst.HeatmapContext(context.Background(), e.ev, c.xs, burstYs, trials, seed, "")
				})
				if !p.ck.noErr(err, "Heatmap "+e.name) {
					continue
				}
				p.ck.ok(!g.Partial, "%s %s: partial grid", e.name, c.name)
				p.dig.str(e.name + c.name)
				for iy := range g.Ys {
					for ix := range g.Xs {
						cell := g.Cells[iy][ix]
						checkBurstCell(p.ck, &e, cell, trials)
						p.work += float64(cell.Trials)
						if e.fresh == nil {
							p.dig.f64(cell.PDL, cell.Lo, cell.Hi)
						}
					}
				}
			}
		}
	}, nil
}

// checkBurstCell holds one heatmap cell to what the code and the exact
// evaluation say about it.
func checkBurstCell(ck *checker, e *burstEvaluator, cell burst.Result, trials int) {
	x, y := cell.Racks, cell.Failures
	if y < x { // undefined: every affected rack needs a failure
		ck.ok(math.IsNaN(cell.PDL) && cell.Trials == 0, "%s (%d,%d): undefined cell holds %g", e.name, x, y, cell.PDL)
		return
	}
	ck.ok(cell.PDL >= 0 && cell.PDL <= 1 && cell.Lo <= cell.PDL && cell.PDL <= cell.Hi && cell.Trials == trials && !cell.Partial,
		"%s (%d,%d): PDL %g [%g, %g] over %d trials", e.name, x, y, cell.PDL, cell.Lo, cell.Hi, cell.Trials)
	if x <= e.zeroLossRacks {
		ck.ok(cell.PDL == 0, "%s (%d,%d): PDL %g where %d racks cannot lose data", e.name, x, y, cell.PDL, x)
	}
	if want, ok := e.exact[[2]int{x, y}]; ok {
		// Each trial's conditional PDL lies in [0,1] with mean `want`,
		// so its variance is at most want·(1−want); 4 standard errors
		// plus a few whole trials covers the small-count tail.
		n := float64(trials)
		tol := 4*math.Sqrt(want*(1-want)/n) + 6/n + 1e-12
		ck.ok(math.Abs(cell.PDL-want) <= tol, "%s (%d,%d): PDL %g, exact %g ± %.3g", e.name, x, y, cell.PDL, want, tol)
	}
}

// randomBytes fills n bytes from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
