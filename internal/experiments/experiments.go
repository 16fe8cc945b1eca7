// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver computes typed results and can render
// them as the rows/series the paper reports; cmd/mlecsim, the benchmark
// harness, and EXPERIMENTS.md all consume these drivers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"

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
	// CheckpointDir, when non-empty, makes the Monte-Carlo experiments
	// (heatmaps, splitting stage 1, the full-system simulation driver)
	// checkpoint their estimator state there and resume interrupted
	// runs deterministically. Each experiment derives its own file
	// names, so one directory serves a whole campaign.
	CheckpointDir string
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options { return Options{Seed: 1, AFR: 0.01} }

// afr returns the annual failure rate, resolving 0 to the default.
// RunContext has already refused values outside [0,1).
func (o Options) afr() float64 {
	if o.AFR == 0 {
		return failure.DefaultAFR
	}
	return o.AFR
}

// lambda returns the per-hour failure rate implied by the AFR.
func (o Options) lambda() float64 { return o.afr() / 8760 }

// checkpointPath returns the checkpoint file for a named campaign, or
// "" (checkpointing disabled) when no CheckpointDir is set.
func (o Options) checkpointPath(name string) string {
	if o.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(o.CheckpointDir, name+".ckpt")
}

// Runner is the common shape of an experiment entry point. Runners
// observe ctx: the Monte-Carlo drivers stop at the next trial boundary
// on cancellation and render what they have (partial heatmap cells stay
// NaN); analytic drivers may finish their (cheap) computation.
type Runner func(ctx context.Context, opts Options, w io.Writer) error

// registry maps experiment ids to runners; populated by init() calls in
// the per-figure files.
var registry = map[string]Runner{}

var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// Run executes the experiment with the given id, rendering to w. Run is
// RunContext without cancellation.
func Run(id string, opts Options, w io.Writer) error {
	return RunContext(context.Background(), id, opts, w)
}

// RunContext executes the experiment under run control: cancellation or
// a deadline stops the Monte-Carlo engines at the next trial boundary
// and the driver renders the partial result it has.
func RunContext(ctx context.Context, id string, opts Options, w io.Writer) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	if _, err := failure.ResolveAFR(opts.AFR); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return r(ctx, opts, w)
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
func Describe(id string) string { return descriptions[id] }

// paperTopo is the §3 datacenter.
func paperTopo() topology.Config { return topology.Default() }

// paperParams is the §3 (10+2)/(17+3) MLEC.
func paperParams() placement.Params { return placement.DefaultParams() }
