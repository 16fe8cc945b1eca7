package faultinject

import (
	"flag"
	"fmt"
	"io"
)

// CLIFlags carries the chaos debug flag every CLI exposes. Bind before
// flag.Parse, Activate after argument validation; the returned stop
// function disarms the plan (idempotent).
type CLIFlags struct {
	Spec string // -chaos: injection spec, "" = off
}

// BindCLIFlags registers -chaos on fs.
func BindCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.StringVar(&f.Spec, "chaos", "",
		"arm the deterministic fault-injection plan (debug; e.g. 'poolsim.worker:panic:p=0.1')")
	return f
}

// Activate parses and arms the spec and announces the armed rules on
// errw so a chaos run is never mistaken for a clean one. With no spec
// it arms nothing and the returned stop is a no-op.
func (f *CLIFlags) Activate(errw io.Writer) (func(), error) {
	plan, err := Parse(f.Spec)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return func() {}, nil
	}
	Enable(plan)
	fmt.Fprintf(errw, "chaos: %d rule(s) armed, seed %d:\n", len(plan.rules), plan.Seed)
	for _, r := range plan.Rules() {
		fmt.Fprintf(errw, "chaos:   %s\n", describeRule(r))
	}
	return Disable, nil
}

func describeRule(r Rule) string {
	trigger := "every hit"
	switch {
	case r.Prob > 0:
		trigger = fmt.Sprintf("p=%g per stream", r.Prob)
	case r.Nth > 0:
		trigger = fmt.Sprintf("hit #%d", r.Nth)
	}
	s := fmt.Sprintf("%s: %s (%s", r.Point, r.Kind, trigger)
	if r.Kind == KindWriteError && r.Bytes > 0 {
		s += fmt.Sprintf(", after %d bytes", r.Bytes)
	}
	return s + ")"
}
