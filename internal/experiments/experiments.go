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
	"time"

	"mlec/internal/failure"
	"mlec/internal/placement"
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
func (o Options) afr() float64 {
	if o.AFR == 0 {
		return failure.DefaultAFR
	}
	return o.AFR
}

// lambda returns the per-hour failure rate the analytic models take.
func (o Options) lambda() float64 { return failure.LinearRatePerHour(o.afr()) }

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
	heatXs, heatYs    []int         // PDL heatmap axes: affected racks, failed disks
	heatTrials        int           // Monte-Carlo trials per heatmap cell
	splitTrajectories int           // stage-1 splitting trajectories a level; 0 takes the Markov chain
	fig11Ks, fig11Ps  []int         // Figure 11's (k, p) grid
	tradeoffs         int           // leading configurations of each code family on the Fig 12/15 scatters
	measure           time.Duration // throughput budget of one cell
	poolSizeTrials    int           // burst trials per ablation-poolsize row
	sysYears          float64       // simulated years of each syssim run
}

// size is the size table: the paper-scale study, or with Quick the
// reduced grids and trials of benchmarks and CI.
func (o Options) size() size {
	if o.Quick {
		return size{
			heatXs: span(1, 60, 10), heatYs: span(12, 60, 16), heatTrials: 120,
			fig11Ks: []int{2, 10, 26, 50}, fig11Ps: []int{1, 4, 10},
			tradeoffs: 3, measure: 4 * time.Millisecond, poolSizeTrials: 120, sysYears: 5,
		}
	}
	return size{
		heatXs: span(1, 60, 2), heatYs: span(4, 60, 4), heatTrials: 600, splitTrajectories: 20000,
		fig11Ks: span(2, 50, 4), fig11Ps: span(1, 10, 1),
		tradeoffs: math.MaxInt, measure: 40 * time.Millisecond, poolSizeTrials: 400, sysYears: 25,
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
	run  func(ctx context.Context, opts Options, w io.Writer) error
}

// registry maps experiment ids to their entries; filled by init below.
var registry = map[string]experiment{}

// register adds the driver run under id. Drivers observe ctx as far as
// they can: the Monte-Carlo ones stop at the next trial boundary on
// cancellation and render what they have (partial heatmap cells stay
// NaN); analytic and time-boxed ones finish their computation.
func register[R result](id, desc string, run func(context.Context, Options) (R, error)) {
	registry[id] = experiment{desc, func(ctx context.Context, opts Options, w io.Writer) error {
		r, err := run(ctx, opts)
		if err != nil {
			return err
		}
		return r.Render(w)
	}}
}

// noCtx adapts a driver that does not observe cancellation.
func noCtx[R result](run func(Options) (R, error)) func(context.Context, Options) (R, error) {
	return func(_ context.Context, opts Options) (R, error) { return run(opts) }
}

func init() {
	register("fig1", "storage scaling dataset (disks per system, capacity per disk)",
		func(_ context.Context, opts Options) (*Fig1Result, error) { return Fig1(opts), nil })
	register("tab1", "failure-mode taxonomy demonstrated on a live cluster", noCtx(Tab1))
	register("fig5", "MLEC PDL heatmaps under correlated failure bursts (4 schemes)", Fig5Context)
	register("fig6", "repair time under single-disk and catastrophic local failures", noCtx(Fig6Tab2))
	register("tab2", "repair size and available repair bandwidth per MLEC scheme", noCtx(Fig6Tab2))
	register("fig7", "probability of catastrophic local failure per scheme", Fig7Context)
	register("fig8", "cross-rack repair traffic of the four repair methods", noCtx(Fig8))
	register("fig9", "network/local repair time of the four repair methods", noCtx(Fig9))
	register("fig10", "durability (nines) per scheme and repair method", Fig10Context)
	register("fig11", "encoding throughput heatmap over (k, p)", noCtx(Fig11))
	register("fig12", "MLEC vs SLEC durability/throughput tradeoff at ~30% overhead", noCtx(Fig12))
	register("fig13", "SLEC PDL heatmaps under correlated failure bursts (4 placements)", Fig13Context)
	register("fig14", "LRC (4,2,2) layout and local-repair demonstration", noCtx(Fig14))
	register("fig15", "MLEC vs LRC durability/throughput tradeoff at ~30% overhead", noCtx(Fig15))
	register("fig16", "LRC-Dp PDL heatmap under correlated failure bursts", Fig16Context)
	register("sec514", "repair network traffic: network SLEC vs MLEC", noCtx(Sec5Traffic))
	register("sec524", "repair network traffic: LRC vs MLEC", noCtx(Sec5Traffic))
	register("syssim", "full-system simulation of the 57,600-disk datacenter (all schemes)", SysSimContext)
	register("ablation-detection", "durability vs failure-detection time (MLEC vs LRC)", noCtx(AblationDetection))
	register("ablation-poolsize", "local-Dp pool size vs repair speed and burst PDL", noCtx(AblationPoolSize))
	register("ablation-stripewidth", "local stripe width vs lost-stripe fraction and repair traffic",
		noCtx(AblationStripeWidth))
	register("ablation-cores", "multi-core encoding throughput scaling", noCtx(AblationCores))
}

// RunContext executes the experiment with the given id, rendering to w.
// Cancellation or a deadline stops the Monte-Carlo engines at the next
// trial boundary and the experiment renders the partial result it has.
func RunContext(ctx context.Context, id string, opts Options, w io.Writer) error {
	e, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	if _, err := failure.ResolveAFR(opts.AFR); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return e.run(ctx, opts, w)
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
