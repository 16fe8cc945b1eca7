package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	// setupReps is how often a run sets up (inputs, construction, one
	// warm-up pass); setup_s is the median.
	setupReps = 3
	// minPasses is the fewest timed passes of an untraced run; passes
	// continue until --seconds have elapsed.
	minPasses = 5
	// minUntracedPasses is how many untraced passes a traced run times
	// before its traced pass, as the base of bench.trace_overhead_frac.
	minUntracedPasses = 2
)

// runOptions are one invocation's arguments.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	// buildDir is where a traced run writes its spans and the probes
	// keep their temporary files; inside the checkout.
	buildDir string
	commit   string
}

// metricValue is a reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run measured, with its provenance. The
// driver's contract line is derived from it (see contractLine); -out
// appends the whole of it to a file for -compare.
type runResult struct {
	Workload   string       `json:"workload"`
	WorkUnit   string       `json:"work_unit"`
	Traced     bool         `json:"traced"`
	Provenance provenance   `json:"provenance"`
	Setups     []float64    `json:"setup_s"`
	Passes     []passResult `json:"passes"`
	Digest     string       `json:"output_digest"`
	Attempted  int          `json:"attempted"`
	Failed     int          `json:"failed"`
	// FailedShare is Failed ÷ Attempted: operations that errored or failed
	// an output check, as a share of the operations attempted.
	FailedShare float64                `json:"failed_share"`
	Failures    []string               `json:"failures,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	// TracedPass and Layers are the traced pass and its per-layer rollup.
	TracedPass *passResult   `json:"traced_pass,omitempty"`
	Layers     []layerRollup `json:"layers,omitempty"`
	TraceFile  string        `json:"trace_file,omitempty"`
}

// errNondeterministic is returned when passes of one run disagree on a
// deterministic output: such a run measures nothing and emits no result.
type errNondeterministic struct{ first, other string }

func (e errNondeterministic) Error() string {
	return fmt.Sprintf("passes disagree on their deterministic outputs (%s vs %s): no result emitted", e.first, e.other)
}

// run executes one benchmark run.
func run(opts runOptions) (*runResult, error) {
	w := findWorkload(opts.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	res := &runResult{
		Workload: w.name, WorkUnit: w.unit, Traced: opts.trace,
		Provenance: collectProvenance(opts),
		Metrics:    map[string]metricValue{},
	}
	ck := &checker{}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	// Set-up: inputs from the seed, construction, one warm-up pass whose
	// outputs become the reference every timed pass must reproduce.
	reps := setupReps
	if opts.trace {
		reps = 1
	}
	var pass passFunc
	var reference passResult
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if pass, err = w.prepare(opts.seed, opts.sc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		reference = runPass(pass, ck, nil)
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}
	res.Digest = reference.Digest

	// Timed passes, tracing off: until the time is up.
	budget, atLeast := opts.seconds, minPasses
	if opts.trace {
		budget, atLeast = opts.seconds/3, minUntracedPasses
	}
	began := time.Now()
	for len(res.Passes) < atLeast || time.Since(began).Seconds() < budget {
		pr := runPass(pass, ck, nil)
		res.Passes = append(res.Passes, pr)
		if !ck.ok(pr.Digest == reference.Digest, "pass %d digest %s differs from the warm-up's %s", len(res.Passes), pr.Digest, reference.Digest) {
			return nil, errNondeterministic{reference.Digest, pr.Digest}
		}
	}

	if opts.trace {
		if err := tracedPart(res, opts, pass, ck, gc0); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res)
	}
	res.Attempted, res.Failed, res.Failures = ck.attempted, ck.failed, ck.messages
	res.FailedShare = float64(ck.failed) / float64(ck.attempted)
	return res, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func column(passes []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// monteCarloAndTab1 are the experiments a traced paper_quick pass reports
// one by one (experiments.<id>_s); the rest are summed as analytic or
// time-boxed.
var monteCarloAndTab1 = []string{"syssim", "fig5", "fig13", "fig16", "tab1"}

// endToEnd derives the end-to-end metrics from the timed passes.
func endToEnd(res *runResult) {
	wall := median(column(res.Passes, func(p passResult) float64 { return p.WallS }))
	work := res.Passes[0].Work // identical in every pass: part of the digest's inputs
	values := map[string]float64{
		"setup_s":         median(res.Setups),
		"wall_s":          wall,
		"work_per_s":      work / wall,
		"alloc_mb":        median(column(res.Passes, func(p passResult) float64 { return p.AllocMB })),
		"allocs_per_work": median(column(res.Passes, func(p passResult) float64 { return p.Mallocs })) / work,
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
}

// tracedPart runs the traced pass and the probes and fills the per-layer
// metrics.
func tracedPart(res *runResult, opts runOptions, pass passFunc, ck *checker, gc0 runtime.MemStats) error {
	tr := newTracer(res.Workload)
	traced := runPass(pass, ck, tr)
	if !ck.ok(traced.Digest == res.Digest, "traced pass digest %s differs from the warm-up's %s", traced.Digest, res.Digest) {
		return errNondeterministic{res.Digest, traced.Digest}
	}
	res.Layers = tr.rollup(traced.traceRoot)

	probed, errs := runProbes(opts.seed, opts.sc, tr, opts.buildDir)
	for _, err := range errs {
		ck.ok(false, "%v", err)
	}

	// From the probes; then, over them, what the traced pass itself
	// counted (exact counts, and where the workload is paper_quick its
	// wall time by experiment class).
	values := probed
	for _, c := range engineCounters {
		values[c.metric] = traced.counts[c.metric]
	}
	values["poolsim.levels"] = traced.counts["poolsim.levels"]
	values["experiments.render_bytes"] = traced.counts["experiments.render_bytes"]
	values["codec.pass_user_mb"] = traced.codecMB
	if res.Workload == "paper_quick" {
		by := func(match func(id string) bool) float64 { return tr.sumByName(traced.traceRoot, match) }
		for _, id := range monteCarloAndTab1 {
			values["experiments."+id+"_s"] = by(func(name string) bool { return name == id })
		}
		values["experiments.timeboxed_s"] = by(func(id string) bool { return timeboxedIDs[id] })
		values["experiments.analytic_s"] = by(func(id string) bool {
			return !timeboxedIDs[id] && !slices.Contains(monteCarloAndTab1, id)
		})
	}

	// The instrument itself.
	walls := column(res.Passes, func(p passResult) float64 { return p.WallS })
	untraced := median(walls)
	lo, hi := minMax(walls)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	values["bench.trace_overhead_frac"] = traced.WallS/untraced - 1
	values["bench.pass_spread_frac"] = (hi - lo) / untraced
	values["bench.peak_rss_mb"] = peakRSSMB()
	values["bench.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	values["bench.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6

	// Every per-layer metric is reported; one the run did not reach
	// (a count of a layer this workload does not enter) is 0.
	for _, m := range perLayerMetrics {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	res.TracedPass = &traced

	res.TraceFile = filepath.Join(opts.buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", res.Workload, opts.seed))
	return tr.writeFile(res.TraceFile)
}
