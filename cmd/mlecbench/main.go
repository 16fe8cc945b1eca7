// Command mlecbench records the repository's two committed throughput
// ledgers, one tier per invocation:
//
//	mlecbench kernels -label L [-out BENCH_gf256.json] [-append]
//	mlecbench engines -label L [-out BENCH_engines.json] [-append]
//
// kernels runs the codec micro-benchmarks (GB/s and allocs/op for the
// gf256 primitives and the RS encode/reconstruct paths, kernels.go);
// engines runs the pinned-seed simulator campaigns (events per wall
// second by the engines' own obs counters, engines.go). The two files
// keep their own schemas; everything else is shared.
//
// -append keeps earlier runs in the file so before/after pairs stay
// side by side in one document. -label is mandatory and must not repeat
// a label already in the file: every committed run names one measured
// tree state. Each run records the Go version, GOARCH/GOAMD64 level and
// CPU model, because throughput numbers are only comparable within a
// machine.
//
// The ledgers are a trajectory, not a gate: deciding whether a change
// moved a number on this class of host takes alternating runs of
// prebuilt parent and child binaries, which is what bench/'s -compare
// does (bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"mlec/internal/obs"
)

// benchRun is one labelled run of a tier; R is the tier's result row.
type benchRun[R any] struct {
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	GOAMD64   string `json:"goamd64,omitempty"`
	CPUModel  string `json:"cpu_model,omitempty"`
	Results   []R    `json:"results"`
}

type benchFile[R any] struct {
	Schema string        `json:"schema"`
	Runs   []benchRun[R] `json:"runs"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "kernels":
		record(os.Args[2:], "BENCH_gf256.json", kernelSchema, runKernels)
	case "engines":
		record(os.Args[2:], "BENCH_engines.json", engineSchema, runEngines)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mlecbench kernels|engines -label L [-out file] [-append]")
	os.Exit(2)
}

// record parses a tier's flags, measures it and writes the run into the
// tier's ledger.
func record[R any](args []string, defaultOut, schema string, measure func() []R) {
	fs := flag.NewFlagSet("mlecbench", flag.ExitOnError)
	out := fs.String("out", defaultOut, "output JSON file")
	label := fs.String("label", "", "label for this run (e.g. pre-sweep, post-sweep); required")
	appendRun := fs.Bool("append", false, "append to the runs already in the output file")
	fs.Parse(args)

	// A throughput number without a label is unusable in a diff: every
	// committed run must say what state of the tree it measured.
	if *label == "" {
		fmt.Fprintln(os.Stderr, "mlecbench: -label is required (e.g. -label post-sweep)")
		os.Exit(2)
	}

	// Load the existing document (and refuse a duplicate label) before
	// spending minutes on the measurement itself.
	doc := benchFile[R]{}
	if *appendRun {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "mlecbench: %s: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	doc.Schema = schema
	for _, prev := range doc.Runs {
		if prev.Label == *label {
			fmt.Fprintf(os.Stderr,
				"mlecbench: %s already has a %q run; a label names one measured tree state — pick a new label or drop the old run first\n",
				*out, *label)
			os.Exit(2)
		}
	}

	doc.Runs = append(doc.Runs, benchRun[R]{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		GOAMD64:   goamd64(),
		CPUModel:  obs.CPUModel(),
		Results:   measure(),
	})

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mlecbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs)\n", *out, len(doc.Runs))
}

// goamd64 reports the microarchitecture level the binary was built for;
// the compiler bakes it in at build time, so the environment value (or
// the v1 default) is the provenance that matters for comparing runs.
func goamd64() string {
	if runtime.GOARCH != "amd64" {
		return ""
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		return v
	}
	return "v1"
}
