package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// CLIFlags carries the observability flags every Monte-Carlo CLI
// exposes. Bind them before flag.Parse, then Activate after argument
// validation; the returned stop function flushes and shuts everything
// down and must run before the process exits (including error paths
// that call os.Exit, which skip defers).
type CLIFlags struct {
	Every      time.Duration // -progress: render interval, 0 = off
	TraceOut   string        // -trace-out: JSONL trace path, "" = off
	SpanOut    string        // -span-out: JSONL wall-clock span path, "" = off
	RunReport  string        // -run-report: RUNREPORT.json path, "" = off
	ProfileDir string        // -profile-dir: pprof cpu+heap capture dir, "" = off

	tool string // basename of the binary, recorded in run reports
	seed int64  // campaign seed, recorded in run reports via SetSeed
}

// BindCLIFlags registers the observability flags on fs.
func BindCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{tool: filepath.Base(fs.Name())}
	fs.DurationVar(&f.Every, "progress", 0,
		"render a progress report to stderr at this interval (0 disables)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a simulated-time JSONL event trace to this file")
	fs.StringVar(&f.SpanOut, "span-out", "",
		"write wall-clock causal spans (JSONL) to this file (read back by mlectrace spans)")
	fs.StringVar(&f.RunReport, "run-report", "",
		"write a versioned per-run performance report (JSON) to this file at exit")
	fs.StringVar(&f.ProfileDir, "profile-dir", "",
		"capture pprof cpu.pprof + heap.pprof profiles into this directory")
	return f
}

// SetSeed records the campaign seed for the run report; call it after
// flag parsing, before the run.
func (f *CLIFlags) SetSeed(seed int64) { f.seed = seed }

// Activate starts whatever the parsed flags ask for: the trace and span
// recorders, the progress reporter, and CPU profiling. The returned
// stop function is idempotent, reports recorder errors to errw, and —
// because it marks the end of the measured run — finalizes the wall
// clock, writes the heap profile, and emits the run report.
// Observability failing to start is a usage error, not a reason to
// corrupt a long run, so Activate fails fast before any engine work
// begins; a failed Activate releases what it opened and records no run.
func (f *CLIFlags) Activate(errw io.Writer) (func(), error) {
	var (
		traceFile  *os.File
		spanFile   *os.File
		cpuProfile *os.File
		quit       chan struct{}
		ticked     chan struct{}
		ran        bool // set when Activate succeeds, cleared by the first stop
	)
	begin := time.Now()
	stop := func() {
		if cpuProfile != nil {
			pprof.StopCPUProfile()
			if err := cpuProfile.Close(); err != nil {
				fmt.Fprintf(errw, "obs: profile: %v\n", err)
			}
			cpuProfile = nil
			if ran {
				writeHeapProfile(filepath.Join(f.ProfileDir, "heap.pprof"), errw)
			}
		}
		if ran && f.RunReport != "" {
			rep := BuildRunReport(f.tool, os.Args[1:], f.seed, time.Since(begin), Default)
			rep.ProfileDir = f.ProfileDir
			if err := WriteRunReport(f.RunReport, rep); err != nil {
				fmt.Fprintf(errw, "obs: %v\n", err)
			}
		}
		ran = false
		if quit != nil {
			close(quit)
			<-ticked
			quit = nil
		}
		if traceFile != nil {
			if err := Trace.Stop(); err != nil {
				fmt.Fprintf(errw, "obs: trace: %v\n", err)
			}
			if err := traceFile.Close(); err != nil {
				fmt.Fprintf(errw, "obs: trace: %v\n", err)
			}
			traceFile = nil
		}
		if spanFile != nil {
			if err := Spans.Stop(); err != nil {
				fmt.Fprintf(errw, "obs: spans: %v\n", err)
			}
			if err := spanFile.Close(); err != nil {
				fmt.Fprintf(errw, "obs: spans: %v\n", err)
			}
			spanFile = nil
		}
	}

	if f.TraceOut != "" {
		var err error
		traceFile, err = os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		if err := Trace.Start(traceFile); err != nil {
			_ = traceFile.Close()
			return nil, err
		}
	}
	if f.SpanOut != "" {
		var err error
		spanFile, err = os.Create(f.SpanOut)
		if err != nil {
			stop()
			return nil, fmt.Errorf("obs: spans: %w", err)
		}
		if err := Spans.Start(spanFile); err != nil {
			_ = spanFile.Close()
			spanFile = nil
			stop()
			return nil, err
		}
	}
	if f.ProfileDir != "" {
		if err := os.MkdirAll(f.ProfileDir, 0o755); err != nil {
			stop()
			return nil, fmt.Errorf("obs: profile: %w", err)
		}
		var err error
		cpuProfile, err = os.Create(filepath.Join(f.ProfileDir, "cpu.pprof"))
		if err != nil {
			stop()
			return nil, fmt.Errorf("obs: profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuProfile); err != nil {
			_ = cpuProfile.Close()
			cpuProfile = nil
			stop()
			return nil, fmt.Errorf("obs: profile: %w", err)
		}
	}
	if f.Every > 0 {
		quit = make(chan struct{})
		ticked = make(chan struct{})
		interval := f.Every
		//lint:allow barego the progress reporter is a pure observer on a wall-clock ticker; it cannot ride a runctl pool because runctl imports obs
		go func() {
			defer close(ticked)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-quit:
					return
				case <-tick.C:
					Progress.Render(errw, Default)
				}
			}
		}()
	}
	ran = true
	return stop, nil
}

// writeHeapProfile captures an up-to-date heap profile to path,
// reporting failures to errw (profiling is best-effort at shutdown).
func writeHeapProfile(path string, errw io.Writer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(errw, "obs: profile: %v\n", err)
		return
	}
	runtime.GC() // fold recently freed memory out of the profile
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		fmt.Fprintf(errw, "obs: profile: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(errw, "obs: profile: %v\n", err)
	}
}
