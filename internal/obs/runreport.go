package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Per-run performance reports. A RunReport is the persisted record of
// one CLI invocation's performance envelope — what campaign ran (config
// fingerprint, seed), how long it took, how many events it simulated,
// every counter's final value, and how much heap it used — written by
// the -run-report flag so that runs can be compared across commits
// without re-deriving anything from logs. `mlecbench engines` reads the same
// obs event counters for its BENCH_engines.json trajectory.

// RunReportSchema versions the report format; ParseRunReport rejects
// anything else.
const RunReportSchema = "mlec-run-report/v2"

// RunReport is the versioned JSON document -run-report emits.
type RunReport struct {
	Schema            string   `json:"schema"`
	Tool              string   `json:"tool"`
	Args              []string `json:"args"`
	ConfigFingerprint string   `json:"config_fingerprint"`
	Seed              int64    `json:"seed"`
	GoVersion         string   `json:"go_version"`
	GOOS              string   `json:"goos"`
	GOARCH            string   `json:"goarch"`
	CPUModel          string   `json:"cpu_model,omitempty"`

	WallSeconds     float64 `json:"wall_seconds"`
	EventsSimulated int64   `json:"events_simulated"`

	// Heap readings from runtime.ReadMemStats at report time: HeapSys
	// as the peak (the high-water mark of heap claimed from the OS),
	// TotalAlloc as cumulative allocation volume.
	PeakHeapBytes   uint64 `json:"peak_heap_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`

	// Counters holds every registry counter by full metric name, the
	// runctl checkpoint and stream tallies included.
	Counters map[string]int64 `json:"counters"`

	ProfileDir string `json:"profile_dir,omitempty"`
}

// engineEventCounters are the one-per-simulated-event counters of the
// three Monte-Carlo engines; EventsSimulated is their sum. (poolsim
// counts trajectories and burst counts trials — each is that engine's
// unit of simulated work.)
var engineEventCounters = []string{
	"syssim_events_total",
	"poolsim_split_trajectories_total",
	"burst_pdl_trials_total",
}

// obsOnlyFlags are the flags excluded from the config fingerprint:
// observability may observe but never steer, so the same campaign
// measured with a different instrumentation setup must fingerprint
// identically.
var obsOnlyFlags = []string{
	"obs", "progress", "trace-out", "span-out", "run-report", "profile-dir",
}

// FingerprintArgs hashes the campaign-defining argument list (FNV-1a,
// observability flags stripped) into a short stable hex token.
func FingerprintArgs(args []string) string {
	h := fnv.New64a()
	skipNext := false
	for _, a := range args {
		if skipNext {
			skipNext = false
			continue
		}
		if name, hasValue, isObs := classifyFlag(a); isObs {
			skipNext = !hasValue && name != ""
			continue
		}
		_, _ = h.Write([]byte(a))
		_, _ = h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// classifyFlag reports whether arg is one of the observability-only
// flags, and whether it carries its value inline (-flag=value).
func classifyFlag(arg string) (name string, hasValue bool, isObs bool) {
	if !strings.HasPrefix(arg, "-") {
		return "", false, false
	}
	body := strings.TrimPrefix(strings.TrimPrefix(arg, "-"), "-")
	name, _, hasValue = strings.Cut(body, "=")
	for _, f := range obsOnlyFlags {
		if name == f {
			return name, hasValue, true
		}
	}
	return name, hasValue, false
}

// BuildRunReport assembles a report from the process's current state:
// the registry's counters plus a runtime.ReadMemStats
// snapshot. The caller supplies the campaign identity (tool, args,
// seed) and the measured wall time.
func BuildRunReport(tool string, args []string, seed int64, wall time.Duration, reg *Registry) RunReport {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	counters := reg.CounterValues()
	rep := RunReport{
		Schema:            RunReportSchema,
		Tool:              tool,
		Args:              args,
		ConfigFingerprint: FingerprintArgs(args),
		Seed:              seed,
		GoVersion:         runtime.Version(),
		GOOS:              runtime.GOOS,
		GOARCH:            runtime.GOARCH,
		CPUModel:          CPUModel(),
		WallSeconds:       wall.Seconds(),
		PeakHeapBytes:     ms.HeapSys,
		TotalAllocBytes:   ms.TotalAlloc,
		NumGC:             ms.NumGC,
		Counters:          counters,
	}
	for _, name := range engineEventCounters {
		rep.EventsSimulated += counters[name]
	}
	return rep
}

// WriteRunReport writes rep as indented JSON to path.
func WriteRunReport(path string, rep RunReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("run report: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("run report: %w", err)
	}
	return nil
}

// ParseRunReport decodes and validates a run report document.
func ParseRunReport(rd io.Reader) (RunReport, error) {
	var rep RunReport
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return RunReport{}, fmt.Errorf("run report: %w", err)
	}
	if rep.Schema != RunReportSchema {
		return RunReport{}, fmt.Errorf("run report: schema %q, want %q", rep.Schema, RunReportSchema)
	}
	if rep.Tool == "" {
		return RunReport{}, fmt.Errorf("run report: missing tool")
	}
	if rep.WallSeconds < 0 {
		return RunReport{}, fmt.Errorf("run report: negative wall_seconds %g", rep.WallSeconds)
	}
	return rep, nil
}

// CPUModel extracts the processor model from /proc/cpuinfo; throughput
// numbers are not comparable across CPUs, so every performance record
// names the one it ran on. Returns "" where the file or field is
// unavailable.
func CPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}
