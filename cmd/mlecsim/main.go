// Command mlecsim regenerates the paper's tables and figures.
//
// Usage:
//
//	mlecsim list                 # show available experiment ids
//	mlecsim [flags] <id>...      # run experiments (e.g. fig5 tab2)
//	mlecsim [flags] all          # run every experiment
//
// Flags:
//
//	-quick        reduced grids/trials (seconds instead of minutes)
//	-seed N       RNG seed (default 1)
//	-afr F        annual disk failure rate (default 0.01)
//	-timeout D    wall-clock budget; partial renders on expiry
//	-checkpoint P checkpoint directory for resumable Monte-Carlo runs
//
// Runs are interruptible: -timeout or a single Ctrl-C drains the
// Monte-Carlo engines at the next trial boundary and renders what is
// done (a second Ctrl-C exits immediately). With -checkpoint, completed
// work is saved under the directory so re-running the identical command
// resumes deterministically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"mlec"
	"mlec/cmd/internal/cli"
	"mlec/internal/experiments"
	"mlec/internal/obs"
)

func main() {
	c := cli.New("mlecsim", "renders", "checkpoint directory for resumable Monte-Carlo experiments")
	afrFlag := c.AFR()
	quick := flag.Bool("quick", false, "reduced grids/trials")
	csv := flag.Bool("csv", false, "emit CSV instead of ASCII heatmaps (fig5/fig13/fig16)")
	flag.Usage = usage
	flag.Parse()

	afr := afrFlag()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, id := range mlec.Experiments() {
			fmt.Printf("  %-8s %s\n", id, mlec.DescribeExperiment(id))
		}
		return
	}
	known := mlec.Experiments()
	ids := args
	if args[0] == "all" {
		ids = known
	}
	// Every id is checked before any experiment runs, so a typo at the
	// end of a long list fails at once instead of after the work before it.
	for _, id := range ids {
		if !slices.Contains(known, id) {
			fmt.Fprintf(os.Stderr, "mlecsim: unknown experiment %q ('mlecsim list' shows the ids)\n\n", id)
			usage()
			os.Exit(2)
		}
	}
	if c.Checkpoint != "" {
		if err := os.MkdirAll(c.Checkpoint, 0o755); err != nil {
			c.Fail(fmt.Errorf("-checkpoint: %w", err))
		}
	}

	ctx, err := c.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecsim: %v\n", err)
		os.Exit(2)
	}
	defer c.Stop()

	opts := mlec.ExperimentOptions{
		Quick: *quick, Seed: c.Seed, AFR: afr, CSV: *csv, CheckpointDir: c.Checkpoint,
	}
	// One run: stage 1 and the codec rates several ids read are
	// computed once.
	run := experiments.NewRun(opts)
	for _, id := range ids {
		start := time.Now()
		span := obs.StartSpan("mlecsim.experiment")
		err := run.RunContext(ctx, id, os.Stdout)
		if span != nil {
			span.EndNote(id)
		}
		if err != nil {
			c.Fail(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		if err := ctx.Err(); err != nil {
			what := "interrupted"
			if errors.Is(err, context.DeadlineExceeded) {
				what = "timed out"
			}
			c.Partial(os.Stderr, fmt.Sprintf("mlecsim: %s after %s; remaining experiments skipped", what, id))
			c.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `mlecsim — regenerate the MLEC paper's tables and figures

usage:
  mlecsim list                 show available experiment ids
  mlecsim [flags] <id>...      run experiments (e.g. fig5 tab2)
  mlecsim [flags] all          run everything

flags:
`)
	flag.PrintDefaults()
}
