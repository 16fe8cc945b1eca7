// Command bench is the repository benchmark: it runs one named workload
// at a seed given as an argument, checks that the outputs are correct,
// and prints every metric by name with its unit. See bench/README.md.
//
//	bash bench/run.sh --workload durability_split --seed 20230911 --seconds 8 --trace 0
//	bash bench/run.sh --workload durability_split --seed 20230911 --seconds 8 --trace 1
//	bash bench/run.sh -compare before.jsonl after.jsonl
//
// The last line of standard output is the result as one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run (bench/README.md lists them)")
	seed := fs.Int64("seed", DefaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", -1, "how long to keep timing passes (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 runs the workload traced and reports the per-layer metrics")
	out := fs.String("out", "", "append the full result, with provenance, to this JSONL file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	commit := fs.String("commit", "unknown", "git commit of the checkout (run.sh passes it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		spec, err := loadSpec(".")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		worse, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse > 0 {
			return 1
		}
		return 0
	}

	// The benchmark belongs to a checkout: refuse to run without the
	// file that defines it.
	spec, err := loadSpec(".")
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the root of a checkout:", err)
		return 2
	}
	if *seconds < 0 {
		*seconds = float64(spec.RunSeconds)
	}
	opts := runOptions{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
		buildDir: ".bench_build", commit: *commit,
	}
	if err := os.MkdirAll(opts.buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if errors.As(err, &errNondeterministic{}) {
			return 1
		}
		return 2
	}
	printResult(stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line, err := contractLine(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if res.Failed > 0 {
		for _, m := range res.Failures {
			fmt.Fprintln(stderr, "bench: FAILED:", m)
		}
		return 1
	}
	return 0
}

// contractLine renders the result the way the driver reads it.
func contractLine(res *runResult) (string, error) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics}
	b, err := json.Marshal(line)
	return string(b), err
}

func appendResult(path string, res *runResult) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints the run for a reader: provenance, passes, every
// metric by name with its unit, and for a traced run each layer's share.
func printResult(w io.Writer, res *runResult) {
	p := res.Provenance
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", res.Workload, p.Seed, res.Traced)
	fmt.Fprintf(w, "commit %s  %s %s/%s  cpu %q  nproc %d  GOMAXPROCS %d\n",
		p.Commit, p.GoVersion, p.GOARCH, p.GOAMD64, p.CPUModel, p.NumCPU, p.GOMAXPROCS)
	walls := column(res.Passes, func(p passResult) float64 { return p.WallS })
	lo, hi := minMax(walls)
	fmt.Fprintf(w, "set-ups %d: %.4f s each (median %.4f)\n", len(res.Setups), res.Setups, median(res.Setups))
	fmt.Fprintf(w, "timed passes %d of %d operations: wall median %.4f s, min %.4f, max %.4f; %.6g %s a pass\n",
		len(walls), res.Passes[0].Ops, median(walls), lo, hi, res.Passes[0].Work, res.WorkUnit)
	fmt.Fprintf(w, "pass wall times: %.4f\n", walls)
	fmt.Fprintf(w, "output digest %s  operations %d  failed %d\n", res.Digest, res.Attempted, res.Failed)

	if res.Traced {
		fmt.Fprintf(w, "\ntraced pass %.4f s; spans in %s\n", res.TracedPass.WallS, res.TraceFile)
		fmt.Fprintf(w, "  %-12s %6s %10s %10s\n", "layer", "spans", "busy s", "self s")
		for _, l := range res.Layers {
			fmt.Fprintf(w, "  %-12s %6d %10.4f %10.4f\n", l.Layer, l.Count, l.BusyS, l.SelfS)
		}
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		unit := m.Unit
		switch name { // the generic unit, made specific to the workload
		case "work_per_s":
			unit = res.WorkUnit + "/s"
		case "allocs_per_work":
			unit = "mallocs/" + res.WorkUnit
		}
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", name, m.Value, unit)
	}
	// The sixth end-to-end metric: its bound is 0, absolute, so it is held
	// by the exit code and -compare and not by BENCHMARK.json's relative
	// bounds (which cannot bound a metric that reads 0).
	fmt.Fprintf(w, "  %-36s %16.6g %s\n", "failed_share", res.FailedShare, "fraction")
	fmt.Fprintln(w)
}
