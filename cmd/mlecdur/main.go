// Command mlecdur estimates system durability (nines of annual PDL) for
// an MLEC scheme under each of the four repair methods, optionally using
// the event-driven splitting simulator for stage 1.
//
// Usage:
//
//	mlecdur -scheme C/D
//	mlecdur -scheme D/D -sim -trajectories 30000
//	mlecdur -scheme D/D -sim -timeout 30s -checkpoint dur.ckpt
//
// With -sim, the run is interruptible: a -timeout deadline or a single
// Ctrl-C drains in-flight trajectories and prints partial estimates with
// honestly widened bounds (a second Ctrl-C exits immediately). With
// -checkpoint, completed splitting levels are saved so re-running the
// identical command resumes where the campaign left off and finishes
// with exactly the result an uninterrupted run would have produced.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mlec"
	"mlec/cmd/internal/cli"
)

func main() {
	c := cli.New("mlecdur", "results", "checkpoint file for the splitting campaign (with -sim)")
	schemeFlag, afrFlag, codeFlags := c.Scheme("C/D"), c.AFR(), c.Code()
	sim := flag.Bool("sim", false, "use the event-driven splitting simulator for stage 1")
	trajectories := flag.Int("trajectories", 20000, "splitting trajectories per level")
	flag.Parse()

	if *trajectories <= 0 {
		c.Usage("-trajectories must be positive, got %d", *trajectories)
	}
	params, afr, scheme := codeFlags(), afrFlag(), schemeFlag()
	ctx, err := c.Start()
	if err != nil {
		c.Usage("%v", err)
	}
	defer c.Stop()

	ests, err := mlec.EstimateDurabilityContext(ctx, mlec.DefaultTopology(), params, scheme, mlec.DurabilityOptions{
		AFR: afr, UseSimulation: *sim, Trajectories: *trajectories, Seed: c.Seed,
		CheckpointPath: c.Checkpoint,
	})
	if err != nil {
		c.Fail(err)
	}
	stage := "Markov (R_ALL view)"
	if *sim {
		stage = fmt.Sprintf("splitting simulator (%d trajectories/level)", *trajectories)
	}
	fmt.Printf("%v %v at %.1f%% AFR — stage 1: %s\n", scheme, params, afr*100, stage)
	fmt.Printf("%-8s  %-22s  %-14s  %-12s  %s\n", "method", "cat rate (/pool/h)", "window (h)", "annual PDL", "nines")
	// A sampled stage 1 that saw no catastrophe estimates a rate of 0;
	// its nines would print as +Inf, which no run has earned.
	var bounds []string
	unsampled := false
	for _, e := range ests {
		nines := fmt.Sprintf("%.1f", e.Nines)
		if *sim && e.AnnualPDL == 0 {
			nines, unsampled = "n/a", true
			if e.AnnualPDLHi > 0 {
				bounds = append(bounds, fmt.Sprintf("%v %.3g", e.Method, e.AnnualPDLHi))
			}
		}
		fmt.Printf("%-8v  %-22.3g  %-14.1f  %-12.3g  %s\n",
			e.Method, e.CatRatePerPoolHour, e.WindowHours, e.AnnualPDL, nines)
	}
	if unsampled {
		bound := ""
		if len(bounds) > 0 {
			bound = "; annual PDL upper bounds " + strings.Join(bounds, ", ")
		}
		fmt.Fprintf(os.Stderr, "mlecdur: no catastrophe was sampled in stage 1%s; raise -trajectories above %d for an estimate\n",
			bound, *trajectories)
	}
	if len(ests) > 0 && ests[0].Partial {
		c.Partial(os.Stdout, fmt.Sprintf("PARTIAL: splitting campaign interrupted; annual PDL bounded by [%.3g, %.3g] for %v.",
			ests[0].AnnualPDLLo, ests[0].AnnualPDLHi, ests[0].Method))
	}
}
