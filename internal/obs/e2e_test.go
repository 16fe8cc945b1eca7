// End-to-end proof of the package's load-bearing claim: observability
// is inert. A fixed-seed engine run must produce byte-identical stdout
// with every obs feature enabled or disabled, and every exit a signal
// leaves by (the progress line, the run report, the trace, span and
// profile files) must carry it. make obs-smoke runs exactly this test.
package obs_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mlec/internal/obs"
)

// repoRoot locates the module root from this file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildBinaries compiles mlecdur and mlecburst once per test process.
func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		root := repoRoot(t)
		buildDir, buildErr = os.MkdirTemp("", "obs-e2e-*")
		if buildErr != nil {
			return
		}
		for _, name := range []string{"mlecdur", "mlecburst"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, name), "./cmd/"+name)
			cmd.Dir = root
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("building %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

// runBinaryExit runs bin and returns its output and exit code.
func runBinaryExit(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
		}
		return out.Bytes(), errb.Bytes(), ee.ExitCode()
	}
	return out.Bytes(), errb.Bytes(), 0
}

// runBinary runs bin and fails the test unless it exits 0.
func runBinary(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	out, errb, code := runBinaryExit(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\nstderr:\n%s", filepath.Base(bin), args, code, errb)
	}
	return out, errb
}

// TestCLIInertness is the byte-identity check: the same seed with and
// without the full observability stack (-progress, -trace-out,
// -span-out, -run-report, -profile-dir) must print the same bytes to
// stdout, and so must a checkpointed run whose second save fails under
// chaos and is then resumed. A checkpointed run writes the same trace
// as a plain one. It also checks that the live signals
// arrive: the progress line names the engine's task on stderr, and the
// run report counts the engine's unit of work.
func TestCLIInertness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildBinaries(t)
	// Both campaigns save a checkpoint at least twice (mlecdur once per
	// splitting level, mlecburst once per 256-batch round), so the
	// chaos leg's second save comes after a committed one.
	cases := []struct {
		bin     string
		args    []string
		task    string // progress task the engine runs
		counter string // registry counter of the engine's unit of work
	}{
		{"mlecdur", []string{"-scheme", "D/D", "-sim", "-trajectories", "1000", "-seed", "7"},
			"poolsim.split", "poolsim_split_trajectories_total"},
		{"mlecburst", []string{"-scheme", "D/D", "-x", "3", "-y", "40", "-trials", "20000", "-seed", "5"},
			"burst.pdl", "burst_pdl_trials_total"},
	}
	for _, tc := range cases {
		t.Run(tc.bin, func(t *testing.T) {
			bin := filepath.Join(bins, tc.bin)
			plain, _ := runBinary(t, bin, tc.args...)
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "run.trace")
			spanPath := filepath.Join(dir, "run.spans")
			reportPath := filepath.Join(dir, "run.report.json")
			profileDir := filepath.Join(dir, "profiles")
			// A 1ms progress interval renders several lines during even a
			// short campaign.
			instrumented := append(append([]string(nil), tc.args...),
				"-trace-out", tracePath, "-progress", "1ms",
				"-span-out", spanPath, "-run-report", reportPath, "-profile-dir", profileDir)
			observed, stderrOut := runBinary(t, bin, instrumented...)
			if !bytes.Equal(plain, observed) {
				t.Fatalf("observability changed a fixed-seed run's stdout.\nplain:\n%s\nobserved:\n%s",
					plain, observed)
			}
			// Inertness extends to the one recovery path: a checkpointed
			// run under instrumentation whose second save tears fails,
			// says how to resume, and the resumed run prints the
			// fault-free run's bytes.
			ckpt := filepath.Join(dir, "run.ckpt")
			withCkpt := append(append([]string(nil), tc.args...), "-checkpoint", ckpt, "-progress", "1ms")
			_, chaosErr, code := runBinaryExit(t, bin, append(withCkpt,
				"-chaos", "runctl.checkpoint.write:writeerr:nth=2,bytes=8;seed=3")...)
			if code != 1 {
				t.Fatalf("run with a failed save exited %d, want 1\nstderr:\n%s", code, chaosErr)
			}
			for _, want := range []string{"chaos:", "Re-run the same command to resume from " + ckpt + "."} {
				if !strings.Contains(string(chaosErr), want) {
					t.Errorf("stderr of the run with a failed save lacks %q:\n%s", want, chaosErr)
				}
			}
			resumed, _ := runBinary(t, bin, withCkpt...)
			if !bytes.Equal(plain, resumed) {
				t.Fatalf("resume after a failed save changed a fixed-seed run's stdout.\nplain:\n%s\nresumed:\n%s",
					plain, resumed)
			}
			// The trace records the simulation, not how the process ran
			// it: a checkpointed run writes the same bytes.
			trace, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			ckTracePath := filepath.Join(dir, "ckpt.trace")
			runBinary(t, bin, append(append([]string(nil), tc.args...),
				"-checkpoint", filepath.Join(dir, "fresh.ckpt"), "-trace-out", ckTracePath)...)
			if ckTrace, err := os.ReadFile(ckTracePath); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(trace, ckTrace) {
				t.Fatalf("-checkpoint changed a fixed-seed run's trace.\nplain:\n%s\ncheckpointed:\n%s", trace, ckTrace)
			}
			evs, err := obs.ParseTraceEvents(bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if tc.bin == "mlecdur" {
				promotions := 0
				for _, ev := range evs {
					if ev.Kind == obs.EvLevelPromotion {
						promotions++
					}
				}
				if promotions == 0 {
					t.Errorf("splitting run emitted no level_promotion events (%d events total)", len(evs))
				}
			}
			// The PR 10 artifacts must all be well-formed: the span file
			// through the strict span parser, the run report through its
			// schema validator, and the profile dir must hold the pprof
			// pair.
			sf, err := os.Open(spanPath)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			recs, err := obs.ParseSpans(sf)
			if err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(recs) == 0 {
				t.Error("instrumented run recorded no spans")
			}
			rf, err := os.Open(reportPath)
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()
			rep, err := obs.ParseRunReport(rf)
			if err != nil {
				t.Fatalf("run report does not parse: %v", err)
			}
			if rep.Tool != tc.bin {
				t.Errorf("run report tool = %q, want %q", rep.Tool, tc.bin)
			}
			if rep.EventsSimulated <= 0 {
				t.Errorf("run report events_simulated = %d, want > 0", rep.EventsSimulated)
			}
			// The live signals: the progress line names the engine's
			// task, and the report counts the engine's unit of work.
			t.Run("live_signals", func(t *testing.T) {
				if want := "progress: " + tc.task; !strings.Contains(string(stderrOut), want) {
					t.Errorf("no %q line reached stderr:\n%s", want, stderrOut)
				}
				if n := rep.Counters[tc.counter]; n <= 0 {
					t.Errorf("run report counters[%s] = %d, want > 0", tc.counter, n)
				}
			})
			// The fingerprint must cover only the physics flags: the
			// plain and instrumented invocations describe the same run.
			if want := obs.FingerprintArgs(tc.args); rep.ConfigFingerprint != want {
				t.Errorf("run report fingerprint %q differs from the plain invocation's %q",
					rep.ConfigFingerprint, want)
			}
			for _, prof := range []string{"cpu.pprof", "heap.pprof"} {
				if fi, err := os.Stat(filepath.Join(profileDir, prof)); err != nil {
					t.Errorf("-profile-dir lacks %s: %v", prof, err)
				} else if fi.Size() == 0 {
					t.Errorf("%s is empty", prof)
				}
			}
		})
	}
}
