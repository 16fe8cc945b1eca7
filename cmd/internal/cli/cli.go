// Package cli is the front mlecdur, mlecburst and mlecsim share: the
// flags a campaign takes (seed, code, scheme, AFR, timeout, checkpoint,
// observability and chaos) and their checks, the run's
// context, the exits that flush observability first, and the epilogue of
// an interrupted campaign.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"mlec"
	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
)

// Command is one run of a command-line tool.
type Command struct {
	Seed       int64
	Checkpoint string

	name    string
	timeout time.Duration
	obs     *obs.CLIFlags
	chaos   *faultinject.CLIFlags
	stops   []func() // what Start activated, in order
}

// New binds the flags every command takes on the default flag set:
// -seed, -timeout (a run that times out leaves partial results, or
// renders), -checkpoint (described by checkpointHelp), and the
// observability and chaos flags.
func New(name, partial, checkpointHelp string) *Command {
	c := &Command{name: name}
	flag.Int64Var(&c.Seed, "seed", 1, "RNG seed")
	flag.DurationVar(&c.timeout, "timeout", 0, "wall-clock budget (0 = none); partial "+partial+" on expiry")
	flag.StringVar(&c.Checkpoint, "checkpoint", "", checkpointHelp)
	c.obs = obs.BindCLIFlags(flag.CommandLine)
	c.chaos = faultinject.BindCLIFlags(flag.CommandLine)
	return c
}

// Scheme binds -scheme, def by default. Call the result after flag.Parse
// for the scheme; an unknown name is a usage error.
func (c *Command) Scheme(def string) func() mlec.Scheme {
	name := flag.String("scheme", def, "MLEC scheme: C/C, C/D, D/C, D/D")
	return func() mlec.Scheme {
		for _, s := range mlec.AllSchemes {
			if s.String() == *name {
				return s
			}
		}
		c.Usage("unknown scheme %q", *name)
		return mlec.Scheme{}
	}
}

// Code binds -kn -pn -kl -pl, the paper's (10+2)/(17+3) by default. Call
// the result after flag.Parse for the code; a parameter below 1 is a
// usage error.
func (c *Command) Code() func() mlec.Params {
	kn := flag.Int("kn", 10, "network data units")
	pn := flag.Int("pn", 2, "network parity units")
	kl := flag.Int("kl", 17, "local data chunks")
	pl := flag.Int("pl", 3, "local parity chunks")
	return func() mlec.Params {
		for _, f := range []struct {
			name string
			v    int
		}{{"-kn", *kn}, {"-pn", *pn}, {"-kl", *kl}, {"-pl", *pl}} {
			if f.v <= 0 {
				c.Usage("%s must be positive, got %d", f.name, f.v)
			}
		}
		return mlec.Params{KN: *kn, PN: *pn, KL: *kl, PL: *pl}
	}
}

// AFR binds -afr, 1 % by default. Call the result after flag.Parse for
// the rate; one outside (0,1) is a usage error.
func (c *Command) AFR() func() float64 {
	afr := flag.Float64("afr", 0.01, "annual disk failure rate")
	return func() float64 {
		if math.IsNaN(*afr) || math.IsInf(*afr, 0) {
			c.Usage("-afr must be finite, got %v", *afr)
		}
		if *afr <= 0 || *afr >= 1 {
			c.Usage("-afr must be in (0,1), got %v", *afr)
		}
		return *afr
	}
}

// Usage reports a usage error and exits 2.
func (c *Command) Usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.name+": "+format+"\n", args...)
	fmt.Fprintf(os.Stderr, "run '%s -h' for usage\n", c.name)
	os.Exit(2)
}

// Start activates observability and chaos and returns the run's context:
// cancelled by -timeout or the first SIGINT/SIGTERM. An error comes
// before any work, for the caller to report as a usage error; otherwise
// defer Stop.
func (c *Command) Start() (context.Context, error) {
	c.obs.SetSeed(c.Seed)
	stopObs, err := c.obs.Activate(os.Stderr)
	if err != nil {
		return nil, err
	}
	c.stops = append(c.stops, stopObs)
	stopChaos, err := c.chaos.Activate(os.Stderr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := runctl.CLIContext(c.timeout)
	c.stops = append(c.stops, stopChaos, cancel)
	return ctx, nil
}

// Stop ends the run in the reverse order of Start: the context, chaos,
// then observability, which flushes its trace and writes the run report.
func (c *Command) Stop() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.stops = nil
}

// Exit stops the run, since os.Exit skips deferred calls, and exits.
func (c *Command) Exit(code int) {
	c.Stop()
	os.Exit(code)
}

// Fail reports the error that ended the run and exits 1. A faulted
// worker — a contained panic or an injected fault — and a failed
// checkpoint save, injected or real, are recovered by resuming from the
// last committed checkpoint, so with -checkpoint set Fail also says how.
func (c *Command) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
	var pe *runctl.PanicError
	var ie *faultinject.InjectedError
	var se *runctl.CheckpointSaveError
	if c.Checkpoint != "" && (errors.As(err, &pe) || errors.As(err, &ie) || errors.As(err, &se)) {
		c.resumeHint(os.Stderr)
	}
	c.Exit(1)
}

func (c *Command) resumeHint(w io.Writer) {
	fmt.Fprintf(w, "Re-run the same command to resume from %s.\n", c.Checkpoint)
}

// Partial ends the report of an interrupted campaign on w: the banner,
// then how to finish the campaign.
func (c *Command) Partial(w io.Writer, banner string) {
	fmt.Fprintln(w, banner)
	if c.Checkpoint != "" {
		c.resumeHint(w)
	} else {
		fmt.Fprintln(w, "Pass -checkpoint to make interrupted campaigns resumable.")
	}
}
