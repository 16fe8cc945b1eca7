package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The benchmark's pinned seeds. DefaultSeed is the one every recorded
// baseline uses; HeldOutSeed is kept for checking a claim on inputs nobody
// looked at while the change was written. (BENCHMARK.json's schema has no
// room for them, so they live here and in bench/README.md.)
const (
	DefaultSeed int64 = 20230911
	HeldOutSeed int64 = 77001
)

// metricDef names one metric; the lists below are the code's side of
// BENCHMARK.json and the unit tests hold the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is BENCHMARK.json's view of a workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from dir.
func loadSpec(dir string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// endToEndMetrics are reported by every untraced run, for every workload.
// The work unit of work_per_s and allocs_per_work is the workload's own
// (printed beside the value); BENCHMARK.json carries the generic unit.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "work_per_s", Unit: "work/s", Better: "higher"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "allocs_per_work", Unit: "mallocs/work", Better: "lower"},
}

// sameSeedBounds are the bounds -compare applies in place of a wider one in
// BENCHMARK.json. -compare judges runs at one seed, where a workload's
// allocation repeats to the last digit, so it holds the two allocation
// metrics to ISSUE 11's 2 %; BENCHMARK.json's bound for them has to cover
// what the driver measures, the spread between seeds (up to 2 % on
// durability_split, where how long trajectories run follows the handful of
// snapshots each level is entered from).
var sameSeedBounds = map[string]float64{"alloc_mb": 0.02, "allocs_per_work": 0.02}

// perLayerMetrics are reported by every traced run. Metrics marked "pass"
// in the README come from the traced pass of the workload (and are 0 where
// the workload does not reach the layer); the rest come from the probes,
// which every traced run executes in full.
var perLayerMetrics = []metricDef{
	// experiments → wall_s on paper_quick
	{Name: "experiments.syssim_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig5_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig13_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig16_s", Unit: "s", Better: "lower"},
	{Name: "experiments.tab1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.analytic_s", Unit: "s", Better: "lower"},
	{Name: "experiments.timeboxed_s", Unit: "s", Better: "lower"},
	{Name: "experiments.render_bytes", Unit: "B", Better: "lower"},
	// analytic → wall_s on durability_split (<1 %)
	{Name: "analytic.stage2_s", Unit: "s", Better: "lower"},
	// runctl → wall_s on durability_split
	{Name: "runctl.streams", Unit: "count", Better: "lower"},
	{Name: "runctl.retries", Unit: "count", Better: "lower"},
	{Name: "runctl.dispatch_us_per_stream", Unit: "us", Better: "lower"},
	{Name: "runctl.checkpoint_save_ms", Unit: "ms", Better: "lower"},
	{Name: "runctl.checkpoint_load_ms", Unit: "ms", Better: "lower"},
	// poolsim → work_per_s and alloc_mb on durability_split
	{Name: "poolsim.trajectories", Unit: "count", Better: "lower"},
	{Name: "poolsim.levels", Unit: "count", Better: "lower"},
	{Name: "poolsim.split_cp_traj_per_s", Unit: "1/s", Better: "higher"},
	{Name: "poolsim.split_dp_traj_per_s", Unit: "1/s", Better: "higher"},
	{Name: "poolsim.split_alloc_kb_per_traj", Unit: "KB", Better: "lower"},
	{Name: "poolsim.split_ci_rel_width", Unit: "ratio", Better: "lower"},
	// sim + pool state machine → durability_split and datacenter_sim
	{Name: "poolsim.longrun_cp_failures_per_s", Unit: "1/s", Better: "higher"},
	{Name: "poolsim.longrun_dp_failures_per_s", Unit: "1/s", Better: "higher"},
	{Name: "poolsim.longrun_alloc_b_per_failure", Unit: "B", Better: "lower"},
	// syssim → work_per_s on datacenter_sim
	{Name: "syssim.events", Unit: "count", Better: "lower"},
	{Name: "syssim.disk_failures", Unit: "count", Better: "lower"},
	{Name: "syssim.construct_cp_s", Unit: "s", Better: "lower"},
	{Name: "syssim.construct_dp_s", Unit: "s", Better: "lower"},
	{Name: "syssim.construct_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "syssim.loop_cp_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "syssim.loop_dp_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "syssim.loop_alloc_b_per_event", Unit: "B", Better: "lower"},
	// burst / placement → burst_heatmap
	{Name: "burst.trials", Unit: "count", Better: "lower"},
	{Name: "burst.mlec_localized_trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "burst.mlec_scattered_trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "burst.slec_trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "burst.lrc_trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "burst.sample_layout_us", Unit: "us", Better: "lower"},
	{Name: "burst.cond_pdl_localized_us", Unit: "us", Better: "lower"},
	{Name: "burst.cond_pdl_scattered_us", Unit: "us", Better: "lower"},
	{Name: "burst.scattered_alloc_kb_per_trial", Unit: "KB", Better: "lower"},
	{Name: "burst.exact_dp_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.newlayout_ms", Unit: "ms", Better: "lower"},
	// rs / lrc / gf256 → codec_encode and cluster_repair
	{Name: "rs.encode_10_2_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.encode_17_3_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.encode_28_12_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.encode_parallel_17_3_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.encode_kernel_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.verify_17_3_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.reconstruct_10_2_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.reconstruct_17_3_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rs.reconstruct_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "rs.reconstruct_alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "rs.new_50_10_ms", Unit: "ms", Better: "lower"},
	{Name: "lrc.encode_14_2_4_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "lrc.reconstruct_local_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gf256.xor_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.pass_user_mb", Unit: "MB", Better: "lower"},
	// cluster → cluster_repair
	{Name: "cluster.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.read_healthy_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.read_degraded_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.repair_rall_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.repair_rmin_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.scrub_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.xrack_bytes_rall", Unit: "B", Better: "lower"},
	{Name: "cluster.xrack_bytes_rmin", Unit: "B", Better: "lower"},
	// the instrument itself
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.pass_spread_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: "lower"},
}
