// Command mlecburst evaluates the probability of data loss for a single
// correlated failure burst: y simultaneous disk failures scattered across
// x racks, for any MLEC scheme and code parameters.
//
// Usage:
//
//	mlecburst -scheme C/D -x 3 -y 60
//	mlecburst -kn 10 -pn 2 -kl 17 -pl 3 -scheme D/D -x 3 -y 60 -trials 2000
//	mlecburst -x 3 -y 60 -trials 1000000 -timeout 1m -checkpoint pdl.ckpt
//
// The campaign is interruptible: a -timeout deadline or a single Ctrl-C
// drains in-flight batches and prints the partial estimate with its
// honestly widened confidence interval (a second Ctrl-C exits
// immediately). With -checkpoint, completed batches are saved so
// re-running the identical command resumes deterministically.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"mlec"
	"mlec/cmd/internal/cli"
)

func main() {
	c := cli.New("mlecburst", "results", "checkpoint file for the Monte-Carlo campaign")
	schemeFlag, codeFlags := c.Scheme("C/C"), c.Code()
	x := flag.Int("x", 3, "number of affected racks")
	y := flag.Int("y", 60, "number of simultaneous disk failures")
	trials := flag.Int("trials", 1000, "Monte Carlo trials")
	flag.Parse()

	if *trials <= 0 {
		c.Usage("-trials must be positive, got %d", *trials)
	}
	// A burst touches every one of its x racks and fails at most every
	// disk in them; any other (x, y) has no layout to sample.
	topo := mlec.DefaultTopology()
	if *x < 1 || *x > topo.Racks {
		c.Usage("-x must be between 1 and the topology's %d racks, got %d", topo.Racks, *x)
	}
	if *y < *x || *y > *x*topo.DisksPerRack() {
		c.Usage("-y must be between x=%d (one failure per rack) and x*%d=%d (every disk of the racks), got %d",
			*x, topo.DisksPerRack(), *x*topo.DisksPerRack(), *y)
	}
	params, scheme := codeFlags(), schemeFlag()
	ctx, err := c.Start()
	if err != nil {
		c.Usage("%v", err)
	}
	defer c.Stop()

	r, err := mlec.BurstPDLContext(ctx, topo, params, scheme, *x, *y, *trials, c.Seed, c.Checkpoint)
	if err != nil {
		c.Fail(err)
	}
	if r.Partial && math.IsNaN(r.PDL) {
		c.Partial(os.Stderr, "mlecburst: interrupted before any batch completed; nothing to report")
		c.Exit(1)
	}
	fmt.Printf("%v %v: PDL(y=%d failures across x=%d racks) = %.4g  [95%% CI %.3g, %.3g]  (%d trials)\n",
		scheme, params, *y, *x, r.PDL, r.Lo, r.Hi, r.Trials)
	if r.Partial {
		c.Partial(os.Stdout, fmt.Sprintf("PARTIAL: %d of %d requested trials completed before interruption.", r.Trials, *trials))
	}
}
