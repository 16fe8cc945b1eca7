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
	"math"
	"os"
	"time"

	"mlec"
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
)

func main() {
	quick := flag.Bool("quick", false, "reduced grids/trials")
	seed := flag.Int64("seed", 1, "RNG seed")
	afr := flag.Float64("afr", 0.01, "annual disk failure rate")
	csv := flag.Bool("csv", false, "emit CSV instead of ASCII heatmaps (fig5/fig13/fig16)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = none); partial renders on expiry")
	checkpoint := flag.String("checkpoint", "", "checkpoint directory for resumable Monte-Carlo experiments")
	watchdog := flag.Duration("watchdog", 0, "stall watchdog interval (0 = off); warns when live workers stop progressing")
	obsFlags := obs.BindCLIFlags(flag.CommandLine)
	chaosFlags := faultinject.BindCLIFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	if math.IsNaN(*afr) || math.IsInf(*afr, 0) {
		fmt.Fprintf(os.Stderr, "mlecsim: -afr must be finite, got %v\n", *afr)
		fmt.Fprintln(os.Stderr, "run 'mlecsim -h' for usage")
		os.Exit(2)
	}
	if *afr <= 0 || *afr >= 1 {
		fmt.Fprintf(os.Stderr, "mlecsim: -afr must be in (0,1), got %v\n", *afr)
		fmt.Fprintln(os.Stderr, "run 'mlecsim -h' for usage")
		os.Exit(2)
	}

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
	ids := args
	if args[0] == "all" {
		ids = mlec.Experiments()
	}
	if *checkpoint != "" {
		if err := os.MkdirAll(*checkpoint, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mlecsim: -checkpoint: %v\n", err)
			os.Exit(1)
		}
	}

	obsFlags.SetSeed(*seed)
	stopObs, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecsim: %v\n", err)
		os.Exit(2)
	}
	defer stopObs()
	stopChaos, err := chaosFlags.Activate(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecsim: %v\n", err)
		os.Exit(2)
	}
	defer stopChaos()

	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()
	defer runctl.StartWatchdog(*watchdog, os.Stderr)()

	opts := mlec.ExperimentOptions{
		Quick: *quick, Seed: *seed, AFR: *afr, CSV: *csv, CheckpointDir: *checkpoint,
	}
	for _, id := range ids {
		start := time.Now()
		span := obs.StartSpan("mlecsim.experiment")
		err := mlec.RunExperimentContext(ctx, id, opts, os.Stdout)
		if span != nil {
			span.EndNote(id)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlecsim: %s: %v\n", id, err)
			stopObs() // os.Exit skips defers; flush the trace first
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		if err := ctx.Err(); err != nil {
			what := "interrupted"
			if errors.Is(err, context.DeadlineExceeded) {
				what = "timed out"
			}
			fmt.Fprintf(os.Stderr, "mlecsim: %s after %s; remaining experiments skipped\n", what, id)
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "Re-run the same command to resume from %s.\n", *checkpoint)
			}
			stopObs()
			os.Exit(1)
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
