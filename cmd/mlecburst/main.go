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
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mlecburst: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'mlecburst -h' for usage")
	os.Exit(2)
}

func main() {
	schemeName := flag.String("scheme", "C/C", "MLEC scheme: C/C, C/D, D/C, D/D")
	x := flag.Int("x", 3, "number of affected racks")
	y := flag.Int("y", 60, "number of simultaneous disk failures")
	trials := flag.Int("trials", 1000, "Monte Carlo trials")
	seed := flag.Int64("seed", 1, "RNG seed")
	kn := flag.Int("kn", 10, "network data units")
	pn := flag.Int("pn", 2, "network parity units")
	kl := flag.Int("kl", 17, "local data chunks")
	pl := flag.Int("pl", 3, "local parity chunks")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = none); partial results on expiry")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for the Monte-Carlo campaign")
	watchdog := flag.Duration("watchdog", 0, "stall watchdog interval (0 = off); warns when live workers stop progressing")
	obsFlags := obs.BindCLIFlags(flag.CommandLine)
	chaosFlags := faultinject.BindCLIFlags(flag.CommandLine)
	flag.Parse()

	if *trials <= 0 {
		fatalUsage("-trials must be positive, got %d", *trials)
	}
	// A burst touches every one of its x racks and fails at most every
	// disk in them; any other (x, y) has no layout to sample.
	topo := mlec.DefaultTopology()
	if *x < 1 || *x > topo.Racks {
		fatalUsage("-x must be between 1 and the topology's %d racks, got %d", topo.Racks, *x)
	}
	if *y < *x || *y > *x*topo.DisksPerRack() {
		fatalUsage("-y must be between x=%d (one failure per rack) and x*%d=%d (every disk of the racks), got %d",
			*x, topo.DisksPerRack(), *x*topo.DisksPerRack(), *y)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-kn", *kn}, {"-pn", *pn}, {"-kl", *kl}, {"-pl", *pl}} {
		if f.v <= 0 {
			fatalUsage("%s must be positive, got %d", f.name, f.v)
		}
	}

	var scheme mlec.Scheme
	switch *schemeName {
	case "C/C":
		scheme = mlec.SchemeCC
	case "C/D":
		scheme = mlec.SchemeCD
	case "D/C":
		scheme = mlec.SchemeDC
	case "D/D":
		scheme = mlec.SchemeDD
	default:
		fatalUsage("unknown scheme %q", *schemeName)
	}

	obsFlags.SetSeed(*seed)
	stopObs, err := obsFlags.Activate(os.Stderr)
	if err != nil {
		fatalUsage("%v", err)
	}
	defer stopObs()
	stopChaos, err := chaosFlags.Activate(os.Stderr)
	if err != nil {
		fatalUsage("%v", err)
	}
	defer stopChaos()

	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()
	defer runctl.StartWatchdog(*watchdog, os.Stderr)()

	params := mlec.Params{KN: *kn, PN: *pn, KL: *kl, PL: *pl}
	r, err := mlec.BurstPDLContext(ctx, topo, params, scheme, *x, *y, *trials, *seed, *checkpoint)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecburst: %v\n", err)
		stopObs() // os.Exit skips defers; flush the trace first
		os.Exit(1)
	}
	if r.Partial && math.IsNaN(r.PDL) {
		fmt.Fprintln(os.Stderr, "mlecburst: interrupted before any batch completed; nothing to report")
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "Pass -checkpoint to make interrupted campaigns resumable.")
		}
		stopObs()
		os.Exit(1)
	}
	fmt.Printf("%s %v: PDL(y=%d failures across x=%d racks) = %.4g  [95%% CI %.3g, %.3g]  (%d trials)\n",
		*schemeName, params, *y, *x, r.PDL, r.Lo, r.Hi, r.Trials)
	if r.Partial {
		fmt.Printf("PARTIAL: %d of %d requested trials completed before interruption.\n", r.Trials, *trials)
		if *checkpoint != "" {
			fmt.Printf("Re-run the same command to resume from %s.\n", *checkpoint)
		} else {
			fmt.Println("Pass -checkpoint to make interrupted campaigns resumable.")
		}
	}
}
