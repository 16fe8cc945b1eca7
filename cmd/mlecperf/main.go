// Command mlecperf runs fixed, pinned-seed engine campaigns — the
// splitting simulator, the full-system simulator, and the burst
// Monte-Carlo — and writes their end-to-end throughput (events per
// wall second) as a committed JSON baseline (BENCH_engines.json at the
// repository root).
//
// mlecbench answers "how fast are the codec kernels"; mlecperf answers
// "how fast are the engines that drive them". The campaigns are the
// same shapes the CLIs run (same seeds, same topology, same schemes),
// sized so the whole suite finishes in a few seconds, and each
// campaign's event count is read from the engine's own obs counters —
// the committed number is the engine's real event rate, not a proxy.
//
// Usage:
//
//	mlecperf -label pre-sweep -out BENCH_engines.json
//	mlecperf -label post-sweep -out BENCH_engines.json -append
//	mlecperf -label ci -out bench-ci.json -against BENCH_engines.json
//
// The provenance discipline matches mlecbench: -label is mandatory and
// must not repeat a label already in the file (every committed run
// names one measured tree state); each run records the Go version,
// GOARCH/GOAMD64 level and CPU model because events/sec numbers are
// only comparable within a machine; -against compares the fresh run to
// the last run of a committed baseline and warns (never fails) on
// engines that lost more than -warn-frac of their throughput.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mlec"
	"mlec/internal/obs"
)

type perfResult struct {
	Name         string  `json:"name"`
	Counter      string  `json:"counter"`
	Events       int64   `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type perfRun struct {
	Label     string       `json:"label"`
	GoVersion string       `json:"go_version"`
	GOARCH    string       `json:"goarch"`
	GOAMD64   string       `json:"goamd64,omitempty"`
	CPUModel  string       `json:"cpu_model,omitempty"`
	Results   []perfResult `json:"results"`
}

type perfFile struct {
	Schema string    `json:"schema"`
	Runs   []perfRun `json:"runs"`
}

const perfSchema = "mlec-engine-bench/v1"

// campaign is one pinned-seed engine workload. counter names the obs
// counter whose delta across run() is the campaign's event count — the
// same counters the trace and /metrics expose, so the benchmark and
// the observability stack can never disagree about what an "event" is.
type campaign struct {
	name    string
	counter string
	run     func(ctx context.Context) error
}

func campaigns() []campaign {
	topo := mlec.DefaultTopology()
	params := mlec.DefaultParams()
	return []campaign{
		{
			// Stage-1 splitting simulator, D/D (the heaviest scheme:
			// declustered at both levels), event = one trajectory.
			name:    "poolsim.split_dd",
			counter: "poolsim_split_trajectories_total",
			run: func(ctx context.Context) error {
				_, err := mlec.EstimateDurabilityContext(ctx, topo, params, mlec.SchemeDD, mlec.DurabilityOptions{
					AFR: 0.01, UseSimulation: true, Trajectories: 4000, Seed: 12061,
				})
				return err
			},
		},
		{
			// Full-system discrete-event simulator over the paper's
			// 57,600-disk datacenter, event = one simulator event.
			name:    "syssim.dc_25y",
			counter: "syssim_events_total",
			run: func(ctx context.Context) error {
				cfg := mlec.SimulationConfig{
					Topology: topo, Params: params, Scheme: mlec.SchemeCD,
					Method: mlec.RepairMinimum, AFR: 0.01,
				}
				_, err := mlec.SimulateContext(ctx, cfg, 25, 12062)
				return err
			},
		},
		{
			// Burst Monte-Carlo at the paper's hardest surviving cell
			// (3 racks x 40 disks), event = one trial.
			name:    "burst.pdl_3x40",
			counter: "burst_pdl_trials_total",
			run: func(ctx context.Context) error {
				_, err := mlec.BurstPDLContext(ctx, topo, params, mlec.SchemeDD, 3, 40, 20000, 12063, "")
				return err
			},
		},
		{
			// The same estimator at a scattered cell (41 racks x 60
			// disks): layout rejection almost never covers 41 racks
			// with 60 draws, so a trial costs 64 failed attempts — the
			// sampling cost the localized 3x40 cell cannot see.
			name:    "burst.pdl_41x60",
			counter: "burst_pdl_trials_total",
			run: func(ctx context.Context) error {
				_, err := mlec.BurstPDLContext(ctx, topo, params, mlec.SchemeDD, 41, 60, 2000, 12064, "")
				return err
			},
		},
	}
}

func main() {
	out := flag.String("out", "BENCH_engines.json", "output JSON file")
	label := flag.String("label", "", "label for this run (e.g. pre-sweep, post-sweep); required")
	appendRun := flag.Bool("append", false, "append to the runs already in the output file")
	against := flag.String("against", "", "baseline JSON file: warn when events/sec drops more than -warn-frac below its last run")
	warnFrac := flag.Float64("warn-frac", 0.20, "fractional events/sec drop vs -against that triggers a warning")
	flag.Parse()

	// A throughput number without a label is unusable in a diff: every
	// committed run must say what state of the tree it measured.
	if *label == "" {
		fmt.Fprintln(os.Stderr, "mlecperf: -label is required (e.g. -label post-sweep)")
		os.Exit(2)
	}

	// Load the existing document (and refuse a duplicate label) before
	// spending seconds on the campaigns themselves.
	doc := perfFile{Schema: perfSchema}
	if *appendRun {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &doc); err != nil {
				fmt.Fprintf(os.Stderr, "mlecperf: %s: %v\n", *out, err)
				os.Exit(1)
			}
		}
		doc.Schema = perfSchema
	}
	for _, prev := range doc.Runs {
		if prev.Label == *label {
			fmt.Fprintf(os.Stderr,
				"mlecperf: %s already has a %q run; a label names one measured tree state — pick a new label or drop the old run first\n",
				*out, *label)
			os.Exit(2)
		}
	}

	run := perfRun{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		GOAMD64:   goamd64(),
		CPUModel:  obs.CPUModel(),
	}
	ctx := context.Background()
	for _, c := range campaigns() {
		before := obs.Default.Counter(c.counter).Value()
		start := time.Now()
		if err := c.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "mlecperf: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		events := obs.Default.Counter(c.counter).Value() - before
		if events <= 0 {
			fmt.Fprintf(os.Stderr, "mlecperf: %s: counter %s did not advance — the campaign measured nothing\n",
				c.name, c.counter)
			os.Exit(1)
		}
		res := perfResult{
			Name:         c.name,
			Counter:      c.counter,
			Events:       events,
			WallSeconds:  wall,
			EventsPerSec: float64(events) / wall,
		}
		run.Results = append(run.Results, res)
		fmt.Printf("%-24s %12d events  %8.3f s  %12.0f events/s\n",
			c.name, res.Events, res.WallSeconds, res.EventsPerSec)
	}

	if *against != "" {
		warnRegressions(run, *against, *warnFrac)
	}

	doc.Runs = append(doc.Runs, run)

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecperf:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mlecperf:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs)\n", *out, len(doc.Runs))
}

// warnRegressions compares the fresh run against the last run in the
// committed baseline file and prints a warning per engine whose
// events/sec fell more than frac below it. Warnings only: shared CI
// runners are noisy enough that a hard gate would flake, but a >20%
// drop deserves a line in the log next to the numbers.
func warnRegressions(run perfRun, path string, frac float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlecperf: -against %s: %v\n", path, err)
		return
	}
	var base perfFile
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "mlecperf: -against %s: %v\n", path, err)
		return
	}
	if len(base.Runs) == 0 {
		fmt.Fprintf(os.Stderr, "mlecperf: -against %s: no runs to compare with\n", path)
		return
	}
	ref := base.Runs[len(base.Runs)-1]
	refBy := make(map[string]perfResult, len(ref.Results))
	for _, r := range ref.Results {
		refBy[r.Name] = r
	}
	warned := 0
	for _, r := range run.Results {
		b, ok := refBy[r.Name]
		if !ok || b.EventsPerSec <= 0 {
			continue
		}
		if r.EventsPerSec < b.EventsPerSec*(1-frac) {
			fmt.Fprintf(os.Stderr,
				"mlecperf: WARNING: %s at %.0f events/s is %.0f%% below the %q baseline of %.0f events/s\n",
				r.Name, r.EventsPerSec, (1-r.EventsPerSec/b.EventsPerSec)*100, ref.Label, b.EventsPerSec)
			warned++
		}
	}
	if warned == 0 {
		fmt.Fprintf(os.Stderr, "mlecperf: all engines within %.0f%% of the %q baseline in %s\n",
			frac*100, ref.Label, path)
	}
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
