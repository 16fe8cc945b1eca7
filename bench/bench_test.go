package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mlec"
	"mlec/internal/burst"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesCode holds BENCHMARK.json to the code's metric and
// workload tables and to the limits the driver refuses a file over.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("BENCHMARK.json has keys the contract does not: %v", keys)
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	if len(spec.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code (2 to 8 allowed)", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	if len(spec.EndToEnd) != len(endToEndMetrics) || len(endToEndMetrics) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code (at most 16)", len(spec.EndToEnd), len(endToEndMetrics))
	}
	var sawSetup bool
	for i, m := range spec.EndToEnd {
		unique(m.Name)
		want := endToEndMetrics[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(spec.PerLayer) != len(perLayerMetrics) || len(perLayerMetrics) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (at most 128)", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		unique(m.Name)
		if m != perLayerMetrics[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, m, perLayerMetrics[i])
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

func tinyOptions(t *testing.T, workload string, trace bool) runOptions {
	return runOptions{workload: workload, seed: DefaultSeed, seconds: 0, trace: trace, sc: tiny, buildDir: t.TempDir(), commit: "test"}
}

// TestEveryWorkloadRunsClean runs each workload at the tiny size: no
// operation may fail, and every end-to-end metric must come out positive.
func TestEveryWorkloadRunsClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(tinyOptions(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.FailedShare != 0 {
				t.Errorf("failed %d of %d operations (share %g): %v", res.Failed, res.Attempted, res.FailedShare, res.Failures)
			}
			if len(res.Passes) < minPasses || len(res.Setups) != setupReps {
				t.Errorf("%d passes, %d set-ups", len(res.Passes), len(res.Setups))
			}
			for _, m := range endToEndMetrics {
				v, ok := res.Metrics[m.Name]
				if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v (reported %v)", m.Name, v, ok)
				}
			}
			line, err := contractLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &got); err != nil || len(got) != 4 {
				t.Errorf("contract line %s: %v", line, err)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs one workload traced: every per-layer
// metric has a value, the layers this workload bypasses count nothing, the
// self times fit inside the pass, and the spans reach the disk.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	res, err := run(tinyOptions(t, "codec_encode", true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed operations: %v", res.Failures)
	}
	for _, m := range perLayerMetrics {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %+v (reported %v)", m.Name, v, ok)
		}
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("%d metrics reported, %d per-layer metrics defined", len(res.Metrics), len(perLayerMetrics))
	}
	for _, idle := range []string{"poolsim.trajectories", "syssim.events", "burst.trials", "experiments.timeboxed_s"} {
		if res.Metrics[idle].Value != 0 {
			t.Errorf("codec_encode moved %s to %g", idle, res.Metrics[idle].Value)
		}
	}
	for _, busy := range []string{"codec.pass_user_mb", "rs.encode_10_2_mb_per_s", "poolsim.split_cp_traj_per_s", "syssim.loop_cp_events_per_s", "cluster.read_degraded_mb_per_s"} {
		if !(res.Metrics[busy].Value > 0) {
			t.Errorf("%s = %g", busy, res.Metrics[busy].Value)
		}
	}
	var self, rootBusy float64
	for _, l := range res.Layers {
		self += l.SelfS
		if l.Layer == "bench" {
			rootBusy = l.BusyS
		}
	}
	if self > rootBusy*(1+1e-9) || rootBusy == 0 {
		t.Errorf("layer self times sum to %g s, the pass took %g s", self, rootBusy)
	}
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines < 8 {
		t.Errorf("trace file holds %d spans", lines)
	}
}

// TestCorruptedOutputsCountAsFailures feeds each output check a value that
// is wrong in one way and requires the checker to count it.
func TestCorruptedOutputsCountAsFailures(t *testing.T) {
	good := func() []mlec.DurabilityEstimate {
		var ests []mlec.DurabilityEstimate
		for i, m := range mlec.AllRepairMethods {
			pdl := 1e-20 / math.Pow(10, float64(i))
			ests = append(ests, mlec.DurabilityEstimate{Method: m, AnnualPDL: pdl, AnnualPDLLo: pdl / 2, AnnualPDLHi: pdl * 3, Nines: -math.Log10(pdl)})
		}
		return ests
	}
	stats := mlec.SimulationStats{SimYears: 10, DiskFailures: 5790}
	cell := burst.Result{Racks: 3, Failures: 12, PDL: 0.2, Lo: 0.1, Hi: 0.3, Trials: 128}
	ev := &burstEvaluator{name: "slec Loc-Cp", exact: map[[2]int]float64{{3, 12}: 0.21}}
	object := [][]byte{bytes.Repeat([]byte{7}, 4096)}

	cases := []struct {
		name  string
		check func(ck *checker, corrupt bool)
	}{
		{"flipped byte in a read", func(ck *checker, corrupt bool) {
			got := [][]byte{bytes.Clone(object[0])}
			if corrupt {
				got[0][1234] ^= 0x10
			}
			checkReads(ck, "read", got, object)
		}},
		{"widened confidence interval", func(ck *checker, corrupt bool) {
			ests := good()
			if corrupt {
				ests[2].AnnualPDLHi *= 100
			}
			checkEstimates(ck, mlec.SchemeCC, ests)
		}},
		{"NaN estimate", func(ck *checker, corrupt bool) {
			ests := good()
			if corrupt {
				ests[1].AnnualPDL, ests[1].Nines = math.NaN(), math.NaN()
			}
			checkEstimates(ck, mlec.SchemeCD, ests)
		}},
		{"estimate far from the Markov answer", func(ck *checker, corrupt bool) {
			sim, markov := good(), good()
			if corrupt { // 2.5 orders above the interval's upper end
				markov[0].AnnualPDL = sim[0].AnnualPDLHi * math.Pow(10, 2.5)
			}
			checkAgainstMarkov(ck, sim, markov)
		}},
		{"interval wider than the ceiling", func(ck *checker, corrupt bool) {
			sim := good()
			if corrupt {
				for i := range sim {
					sim[i].AnnualPDLHi = sim[i].AnnualPDL * 40
				}
			}
			checkAgainstMarkov(ck, sim, good())
		}},
		{"anchor campaign that sampled nothing", func(ck *checker, corrupt bool) {
			sim := good()
			if corrupt {
				for i := range sim {
					sim[i].AnnualPDL, sim[i].AnnualPDLLo, sim[i].Nines = 0, 0, math.Inf(1)
				}
			}
			checkAgainstMarkov(ck, sim, good())
		}},
		{"nines out of order", func(ck *checker, corrupt bool) {
			ests := good()
			if corrupt {
				ests[3].Nines = ests[0].Nines - 1
			}
			checkEstimates(ck, mlec.SchemeCD, ests)
		}},
		{"stage 1 differs between schemes sharing a local pool", func(ck *checker, corrupt bool) {
			rate := 1.5e-13
			if corrupt {
				rate *= 1.0001
			}
			checkSameStage1(ck, mlec.SchemeDC, rate, 1.5e-13)
		}},
		{"simulation cut short", func(ck *checker, corrupt bool) {
			st := stats
			st.Partial = corrupt
			checkSimulation(ck, mlec.SchemeCC, st, 57600, 0.01, 10)
		}},
		{"too few disk failures", func(ck *checker, corrupt bool) {
			st := stats
			if corrupt {
				st.DiskFailures /= 2
			}
			checkSimulation(ck, mlec.SchemeCC, st, 57600, 0.01, 10)
		}},
		{"burst PDL above one", func(ck *checker, corrupt bool) {
			c := cell
			if corrupt {
				c.PDL, c.Hi = 1.2, 1.3
			}
			checkBurstCell(ck, ev, c, 128)
		}},
		{"burst PDL off the exact value", func(ck *checker, corrupt bool) {
			c := cell
			if corrupt {
				c.PDL, c.Lo, c.Hi = 0.6, 0.5, 0.7
			}
			checkBurstCell(ck, ev, c, 128)
		}},
		{"loss where the code guarantees none", func(ck *checker, corrupt bool) {
			c := burst.Result{Racks: 2, Failures: 12, Trials: 128}
			if corrupt {
				c.PDL, c.Hi = 1e-9, 1e-8
			}
			checkBurstCell(ck, &burstEvaluator{name: "mlec C/C", zeroLossRacks: 2}, c, 128)
		}},
		{"parity that does not verify", func(ck *checker, corrupt bool) { checkVerified(ck, "rs 10+2", !corrupt) }},
		{"local parity that is not the XOR", func(ck *checker, corrupt bool) {
			group := [][]byte{{1, 2, 3}, {4, 5, 6}}
			parity := []byte{5, 7, 5}
			if corrupt {
				parity[2] ^= 1
			}
			checkXORParity(ck, "lrc", group, parity)
		}},
		{"dirty scrub", func(ck *checker, corrupt bool) {
			rep := mlec.ScrubReport{LocalStripesChecked: 12, NetworkStripesChecked: 1}
			if corrupt {
				rep.LocalParityMismatches = 1
			}
			checkScrub(ck, "C/C R_MIN", rep)
		}},
		{"repair traffic out of order", func(ck *checker, corrupt bool) {
			xrack := []float64{9e6, 1.2e6, 5e5, 1.8e5}
			if corrupt {
				xrack[3] = 6e5
			}
			checkTrafficOrder(ck, mlec.SchemeCD, xrack)
		}},
		{"empty render", func(ck *checker, corrupt bool) {
			render := []byte("Figure 7\n")
			if corrupt {
				render = []byte(" \n")
			}
			checkRender(ck, "fig7", render)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clean, dirty := &checker{}, &checker{}
			c.check(clean, false)
			c.check(dirty, true)
			if clean.failed != 0 || clean.attempted == 0 {
				t.Errorf("intact output: %d of %d operations failed: %v", clean.failed, clean.attempted, clean.messages)
			}
			if dirty.failed == 0 {
				t.Errorf("corrupted output passed all %d checks", dirty.attempted)
			}
		})
	}
}

// TestDisagreeingPassesEmitNoResult runs a workload whose output changes
// from pass to pass: the run must refuse to produce a result.
func TestDisagreeingPassesEmitNoResult(t *testing.T) {
	calls := 0
	workloads = append(workloads, workload{name: "drifting", unit: "ops", prepare: func(int64, scale) (passFunc, error) {
		return func(p *passCtx) {
			calls++
			p.timed("bench", "op", func() {})
			p.dig.i64(int64(calls))
			p.work = 1
		}, nil
	}})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	res, err := run(tinyOptions(t, "drifting", false))
	var nd errNondeterministic
	if !errors.As(err, &nd) || res != nil {
		t.Fatalf("run returned %v, %v; want errNondeterministic and no result", res, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 1.2, 1.1], n=4) == [1.0, 1.1, 1.2]
	q1, q3 = quartiles([]float64{1.0, 1.2, 1.1})
	if q1 != 1.0 || q3 != 1.2 {
		t.Errorf("quartiles of three = %g, %g; want 1, 1.2", q1, q3)
	}
	if s := spread([]float64{1.0, 1.2, 1.1}); math.Abs(s-0.2/1.1) > 1e-12 {
		t.Errorf("spread = %g", s)
	}
}

// TestCompareVerdicts drives -compare's three verdicts through two result
// files.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "work_per_s", Unit: "work/s", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"5% slower", lower, steady, []float64{1.05, 1.06, 1.04, 1.05, 1.05}, verdictWithin},
		{"20% slower", lower, steady, []float64{1.2, 1.21, 1.19, 1.2, 1.2}, verdictWorse},
		{"faster", lower, steady, []float64{0.5, 0.51, 0.5, 0.49, 0.5}, verdictWithin},
		{"throughput down 20%", higher, steady, []float64{0.8, 0.81, 0.79, 0.8, 0.8}, verdictWorse},
		{"throughput up", higher, steady, []float64{1.5, 1.5, 1.4, 1.6, 1.5}, verdictWithin},
		{"too noisy to call", lower, []float64{1, 1.4, 0.7, 1.2, 0.9}, steady, verdictUnresolved},
		{"noisy but every run better", lower, []float64{1, 1.4, 0.7, 1.2, 0.9}, []float64{0.5, 0.6, 0.5, 0.55, 0.5}, verdictWithin},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// Through files: four runs a side at one seed, 50 % slower in b; a run
	// at another seed in b only is not pooled with them.
	dir := t.TempDir()
	write := func(name string, wall float64, seeds ...int64) string {
		path := filepath.Join(dir, name)
		for i, seed := range seeds {
			res := &runResult{Workload: "codec_encode", Provenance: provenance{Seed: seed}, Digest: "d",
				Metrics: map[string]metricValue{"wall_s": {Value: wall * (1 + float64(i)/1000), Unit: "s"}}}
			if seed != DefaultSeed {
				res.Metrics["wall_s"] = metricValue{Value: 1000, Unit: "s"}
			}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := &benchSpec{EndToEnd: []metricDef{lower}}
	var out bytes.Buffer
	worse, err := compareFiles(&out, spec,
		write("a.jsonl", 1, DefaultSeed, DefaultSeed, DefaultSeed, DefaultSeed),
		write("b.jsonl", 1.5, DefaultSeed, DefaultSeed, HeldOutSeed, DefaultSeed, DefaultSeed))
	if err != nil || worse != 1 || !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), " 4/4 ") {
		t.Errorf("compare: %d worse, err %v\n%s", worse, err, out.String())
	}

	// Allocation is held to 2 % at one seed, whatever wider bound the file
	// needs between seeds.
	alloc := func(name string, mb float64) string {
		path := filepath.Join(dir, name)
		if err := appendResult(path, &runResult{Workload: "codec_encode", Provenance: provenance{Seed: DefaultSeed}, Digest: "d",
			Metrics: map[string]metricValue{"alloc_mb": {Value: mb, Unit: "MB"}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out.Reset()
	worse, err = compareFiles(&out, &benchSpec{EndToEnd: []metricDef{{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.06}}},
		alloc("alloc-a.jsonl", 100), alloc("alloc-b.jsonl", 104))
	if err != nil || worse != 1 {
		t.Errorf("4 %% more allocation at one seed: %d worse, err %v\n%s", worse, err, out.String())
	}

	// A larger failed share is worse whatever the times say.
	failing := filepath.Join(dir, "c.jsonl")
	if err := appendResult(failing, &runResult{Workload: "codec_encode", Provenance: provenance{Seed: DefaultSeed}, Digest: "d",
		Attempted: 10, Failed: 1, FailedShare: 0.1, Metrics: map[string]metricValue{"wall_s": {Value: 1, Unit: "s"}}}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	worse, err = compareFiles(&out, spec, filepath.Join(dir, "a.jsonl"), failing)
	if err != nil || worse != 1 || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("compare with failures: %d worse, err %v\n%s", worse, err, out.String())
	}
}

// TestFailedCheckExitsNonZero drives the command itself on a workload one of
// whose output checks fails: exit code 1, the failure on standard error, and
// the result line still the last line of standard output, saying so.
func TestFailedCheckExitsNonZero(t *testing.T) {
	spec, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, workload{name: "failing", unit: "ops", prepare: func(int64, scale) (passFunc, error) {
		return func(p *passCtx) {
			p.timed("bench", "op", func() {})
			p.ck.ok(false, "the output is wrong")
			p.work = 1
		}, nil
	}})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	// The command runs from the root of a checkout and builds under it.
	checkout := t.TempDir()
	if err := os.WriteFile(filepath.Join(checkout, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(checkout)

	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-workload", "failing", "-seed", "3", "-seconds", "0", "-trace", "0"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit code %d, want 1\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "the output is wrong") {
		t.Errorf("standard error does not name the failed check:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of standard output %q: %v", lines[len(lines)-1], err)
	}
	if line.Correct == nil || *line.Correct || line.Failed == 0 || line.Failed >= line.Attempted || len(line.Metrics) != len(endToEndMetrics) {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	if !strings.Contains(stdout.String(), "failed_share") {
		t.Errorf("failed_share is not printed by name:\n%s", stdout.String())
	}

	// An unknown workload, like any run that cannot measure, prints no
	// result and exits 2.
	stdout.Reset()
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit code %d, standard output %q", code, stdout.String())
	}
}
