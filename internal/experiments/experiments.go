// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver computes a typed result that renders
// itself as the rows/series the paper reports; cmd/mlecsim, the benchmark
// harness, and EXPERIMENTS.md all consume these drivers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"

	"mlec/internal/failure"
	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/throughput"
	"mlec/internal/topology"
)

// Options tunes experiment fidelity.
type Options struct {
	// Quick selects reduced grids/trials for benchmarks and CI. The
	// full setting reproduces the paper-scale study.
	Quick bool
	// Seed drives every stochastic component.
	Seed int64
	// AFR overrides the annual failure rate: 0 selects the paper's 1%,
	// anything else must lie in (0,1) or RunContext refuses the run.
	AFR float64
	// CSV switches renders that support it (the PDL heatmaps) from
	// ASCII art to machine-readable CSV.
	CSV bool
	// CheckpointDir, when non-empty, makes the PDL heatmaps and the
	// stage-1 splitting estimator checkpoint their state there and
	// resume interrupted runs deterministically. Each experiment
	// derives its own file names, so one directory serves a whole
	// campaign.
	CheckpointDir string
}

// afr returns the annual failure rate, resolving 0 to the default.
// RunContext has already refused values outside [0,1).
func (o Options) afr() mathx.AFR {
	if o.AFR == 0 {
		return failure.DefaultAFR
	}
	return mathx.AFR(o.AFR)
}

// lambda returns the per-hour failure rate the analytic models take.
func (o Options) lambda() mathx.Rate { return o.afr().LinearPerHour() }

// checkpointPath returns the checkpoint file for a named campaign, or
// "" (checkpointing disabled) when no CheckpointDir is set.
func (o Options) checkpointPath(name string) string {
	if o.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(o.CheckpointDir, name+".ckpt")
}

// size holds every fidelity knob of the drivers for one mode.
type size struct {
	heatXs, heatYs    []int   // PDL heatmap axes: affected racks, failed disks
	heatTrials        int     // Monte-Carlo trials per heatmap cell
	splitTrajectories int     // stage-1 splitting trajectories a level; 0 takes the Markov chain
	fig11Ks, fig11Ps  []int   // Figure 11's (k, p) grid
	tradeoffs         int     // leading configurations of each code family on the Fig 12/15 scatters
	poolSizeTrials    int     // burst trials per ablation-poolsize row
	sysYears          float64 // simulated years of each syssim run
}

// size is the size table: the paper-scale study, or with Quick the
// reduced grids and trials of benchmarks and CI.
func (o Options) size() size {
	if o.Quick {
		return size{
			heatXs: span(1, 60, 10), heatYs: span(12, 60, 16), heatTrials: 120,
			fig11Ks: []int{2, 10, 26, 50}, fig11Ps: []int{1, 4, 10},
			tradeoffs: 3, poolSizeTrials: 120, sysYears: 5,
		}
	}
	return size{
		heatXs: span(1, 60, 2), heatYs: span(4, 60, 4), heatTrials: 600, splitTrajectories: 20000,
		fig11Ks: span(2, 50, 4), fig11Ps: span(1, 10, 1),
		tradeoffs: math.MaxInt, poolSizeTrials: 400, sysYears: 25,
	}
}

// span lists from, from+step, … up to to.
func span(from, to, step int) []int {
	s := make([]int, 0, (to-from)/step+1)
	for v := from; v <= to; v += step {
		s = append(s, v)
	}
	return s
}

// head returns the first n elements of s, or all of them.
func head[T any](s []T, n int) []T { return s[:min(n, len(s))] }

// result is what every driver returns.
type result interface{ Render(w io.Writer) error }

// experiment is one registry entry.
type experiment struct {
	desc string
	run  func(ctx context.Context, r *Run, w io.Writer) error
}

// registry maps experiment ids to their entries; filled by init below.
var registry = map[string]experiment{}

// register adds the driver run under id. Drivers observe ctx as far as
// they can: the Monte-Carlo ones stop at the next trial boundary on
// cancellation and render what they have (partial heatmap cells stay
// NaN); analytic and throughput ones finish their computation.
func register[R result](id, desc string, run func(context.Context, *Run) (R, error)) {
	registry[id] = experiment{desc, func(ctx context.Context, r *Run, w io.Writer) error {
		res, err := run(ctx, r)
		if err != nil {
			return err
		}
		return res.Render(w)
	}}
}

// optsOnly adapts a driver that reads no run product.
func optsOnly[R result](run func(context.Context, Options) (R, error)) func(context.Context, *Run) (R, error) {
	return func(ctx context.Context, r *Run) (R, error) { return run(ctx, r.opts) }
}

// noCtx adapts a driver that reads no run product and does not observe
// cancellation.
func noCtx[R result](run func(Options) (R, error)) func(context.Context, *Run) (R, error) {
	return func(_ context.Context, r *Run) (R, error) { return run(r.opts) }
}

func init() {
	register("fig1", "storage scaling dataset (disks per system, capacity per disk)",
		func(_ context.Context, r *Run) (*Fig1Result, error) { return Fig1(r.opts), nil })
	register("tab1", "failure-mode taxonomy demonstrated on a live cluster", noCtx(Tab1))
	register("fig5", "MLEC PDL heatmaps under correlated failure bursts (4 schemes)", optsOnly(Fig5Context))
	register("fig6", "repair time under single-disk and catastrophic local failures", noCtx(Fig6Tab2))
	register("tab2", "repair size and available repair bandwidth per MLEC scheme", noCtx(Fig6Tab2))
	register("fig7", "probability of catastrophic local failure per scheme", fig7)
	register("fig8", "cross-rack repair traffic of the four repair methods", noCtx(Fig8))
	register("fig9", "network/local repair time of the four repair methods", noCtx(Fig9))
	register("fig10", "durability (nines) per scheme and repair method", fig10)
	register("fig11", "encoding throughput heatmap over (k, p)", noCtx(Fig11))
	register("fig12", "MLEC vs SLEC durability/throughput tradeoff at ~30% overhead",
		func(_ context.Context, r *Run) (*Fig12Result, error) { return fig12(r) })
	register("fig13", "SLEC PDL heatmaps under correlated failure bursts (4 placements)", optsOnly(Fig13Context))
	register("fig14", "LRC (4,2,2) layout and local-repair demonstration", noCtx(Fig14))
	register("fig15", "MLEC vs LRC durability/throughput tradeoff at ~30% overhead",
		func(_ context.Context, r *Run) (*Fig15Result, error) { return fig15(r) })
	register("fig16", "LRC-Dp PDL heatmap under correlated failure bursts", optsOnly(Fig16Context))
	register("sec514", "repair network traffic: network SLEC vs MLEC", noCtx(Sec5Traffic))
	register("sec524", "repair network traffic: LRC vs MLEC", noCtx(Sec5Traffic))
	register("syssim", "full-system simulation of the 57,600-disk datacenter (all schemes)", optsOnly(SysSimContext))
	register("ablation-detection", "durability vs failure-detection time (MLEC vs LRC)", noCtx(AblationDetection))
	register("ablation-poolsize", "local-Dp pool size vs repair speed and burst PDL", noCtx(AblationPoolSize))
	register("ablation-stripewidth", "local stripe width vs lost-stripe fraction and repair traffic",
		noCtx(AblationStripeWidth))
	register("ablation-cores", "multi-core encoding throughput scaling", noCtx(AblationCores))
}

// Run is one run of experiments over a list of ids, taken one at a time
// through its RunContext. What several drivers read is computed once per
// run, by the first driver that reads it, and handed to the rest: stage
// 1 of Figures 7 and 10, and the codec rates of Figures 12 and 15. A
// product that failed or was cut short is never kept, so the next reader
// computes it again (resuming from its checkpoint, if any). A Run serves
// one goroutine at a time.
type Run struct {
	opts   Options
	stage1 *stage1Product   // nil until a driver computed it whole
	rates  throughput.Table // codes measured so far, at DefaultShardBytes
}

// NewRun starts a run under opts.
func NewRun(opts Options) *Run { return &Run{opts: opts} }

// RunContext executes the experiment with the given id as part of the
// run, rendering to w. Cancellation or a deadline stops the Monte-Carlo
// engines at the next trial boundary and the experiment renders the
// partial result it has.
func (r *Run) RunContext(ctx context.Context, id string, w io.Writer) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	if _, err := failure.ResolveAFR(r.opts.AFR); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return e.run(ctx, r, w)
}

// RunContext executes the experiment with the given id, rendering to w:
// a run of one id.
func RunContext(ctx context.Context, id string, opts Options, w io.Writer) error {
	return NewRun(opts).RunContext(ctx, id, w)
}

// measure returns a table holding the rates of codes, measuring at
// DefaultShardBytes, in one throughput.Measure, only those the run has
// not measured yet: a code two figures of the run share prints one rate.
func (r *Run) measure(codes ...throughput.Code) (throughput.Table, error) {
	var missing []throughput.Code
	for _, c := range codes {
		if _, ok := r.rates[c]; !ok {
			missing = append(missing, c)
		}
	}
	if len(missing) == 0 {
		return r.rates, nil
	}
	tab, err := throughput.Measure(throughput.DefaultShardBytes, missing...)
	if err != nil {
		return nil, err
	}
	if r.rates == nil {
		r.rates = throughput.Table{}
	}
	for _, c := range missing {
		r.rates[c] = tab[c]
	}
	return r.rates, nil
}

// List returns the registered experiment ids in sorted order.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string { return registry[id].desc }

// paperTopo is the §3 datacenter.
func paperTopo() topology.Config { return topology.Default() }

// paperParams is the §3 (10+2)/(17+3) MLEC.
func paperParams() placement.Params { return placement.DefaultParams() }

// paperLayouts builds the four MLEC schemes over the §3 datacenter.
func paperLayouts() (map[placement.Scheme]*placement.Layout, error) {
	ls := map[placement.Scheme]*placement.Layout{}
	for _, s := range placement.AllSchemes {
		l, err := placement.NewLayout(paperTopo(), paperParams(), s)
		if err != nil {
			return nil, err
		}
		ls[s] = l
	}
	return ls, nil
}
