// End-to-end proof of the recovery contract (the chaos CI matrix; make
// chaos runs exactly these tests):
//
//  1. A checkpointed fixed-seed campaign whose worker faults, or whose
//     checkpoint write tears, after a committed save exits 1, names the
//     fault's stream and says how to resume; re-running the same
//     command without chaos resumes and prints stdout byte-identical to
//     the fault-free run.
//  2. A campaign resumed after its newest checkpoint is deliberately
//     corrupted falls back to the previous generation, loudly, and
//     still converges to the byte-identical result.
//
// The binaries are built with -race so the recovery paths are exercised
// under the race detector. With CHAOS_REPORT set, each case appends a
// verdict line to that file (the CI artifact).
package faultinject_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func chaosRepoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

var (
	chaosBuildOnce sync.Once
	chaosBuildDir  string
	chaosBuildErr  error
)

// buildRaceBinaries compiles mlecdur, mlecburst and mlecsim with -race
// once per test process.
func buildRaceBinaries(t *testing.T) string {
	t.Helper()
	chaosBuildOnce.Do(func() {
		root := chaosRepoRoot(t)
		chaosBuildDir, chaosBuildErr = os.MkdirTemp("", "chaos-e2e-*")
		if chaosBuildErr != nil {
			return
		}
		for _, name := range []string{"mlecdur", "mlecburst", "mlecsim"} {
			cmd := exec.Command("go", "build", "-race", "-o", filepath.Join(chaosBuildDir, name), "./cmd/"+name)
			cmd.Dir = root
			if out, err := cmd.CombinedOutput(); err != nil {
				chaosBuildErr = fmt.Errorf("building %s -race: %v\n%s", name, err, out)
				return
			}
		}
	})
	if chaosBuildErr != nil {
		t.Fatal(chaosBuildErr)
	}
	return chaosBuildDir
}

// runChaosBinaryExit runs bin and returns its output and exit code.
func runChaosBinaryExit(t *testing.T, bin string, args ...string) (stdout, stderr []byte, code int) {
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

// runChaosBinary runs bin and fails the test unless it exits 0.
func runChaosBinary(t *testing.T, bin string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	out, errb, code := runChaosBinaryExit(t, bin, args...)
	if code != 0 {
		t.Fatalf("%s %v: exit %d\nstderr:\n%s", filepath.Base(bin), args, code, errb)
	}
	return out, errb
}

var chaosReportMu sync.Mutex

// reportChaos appends one verdict line to $CHAOS_REPORT, the artifact
// the chaos CI job uploads.
func reportChaos(t *testing.T, format string, args ...any) {
	t.Helper()
	path := os.Getenv("CHAOS_REPORT")
	if path == "" {
		return
	}
	chaosReportMu.Lock()
	defer chaosReportMu.Unlock()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("CHAOS_REPORT: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, format+"\n", args...)
}

// doneRE matches mlecsim's per-experiment timing lines, the one part of
// its stdout that is not a function of the seed.
var doneRE = regexp.MustCompile(`(?m)^\[\S+ done in \S+\]\n`)

// streamRE finds the stream a fault's error names: "on stream N" for a
// contained panic, "(stream N)" for an injected error or write.
var streamRE = regexp.MustCompile(`stream -?[0-9]+`)

// TestChaosMatrixByteIdentity runs the fault matrix. Each case runs the
// campaign fault-free, then once per chaos plan with that plan armed —
// each run must fail after a committed checkpoint save, name the stream
// and print the resume line, and each resumes where the last left off —
// then re-runs the same command without chaos, which must resume to the
// fault-free stdout byte for byte.
func TestChaosMatrixByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs -race binaries")
	}
	bins := buildRaceBinaries(t)
	// A splitting level launches one poolsim.worker per CPU (the levels
	// here have more trajectories than the host has CPUs), so hit
	// workers+1 is the first worker of level 2, after level 1's save. A
	// burst round is 256 batches, so hit 257 is the first batch of
	// round 2 — the burst cases ask for 313 batches of 64 trials, two
	// rounds and two saves. A write fault at save 2 comes after save 1
	// committed; in a resumed run, even save 1 comes after the committed
	// save the faulted run left.
	levelWorker := runtime.NumCPU() + 1
	const roundBatch = 257
	cases := []struct {
		name  string
		bin   string
		args  []string
		chaos []string // one faulted run per plan, in order
		// ids are mlecsim's positional arguments, after every flag.
		ids []string
		// saved is the file a save writes, relative to the -checkpoint
		// argument: "" for the argument itself, a name in it for
		// mlecsim, whose argument is a directory.
		saved string
	}{
		{
			// A worker panic in splitting level 2; the resumed run's
			// first save then tears.
			name: "mlecdur_worker_panics_and_ckpt_writeerr",
			bin:  "mlecdur",
			args: []string{"-scheme", "D/D", "-sim", "-trajectories", "600", "-seed", "7"},
			chaos: []string{
				fmt.Sprintf("poolsim.worker:panic:nth=%d;seed=11", levelWorker),
				"runctl.checkpoint.write:writeerr:nth=1,bytes=8;seed=11",
			},
		},
		{
			name: "mlecburst_batch_panics_and_ckpt_writeerr",
			bin:  "mlecburst",
			args: []string{"-scheme", "D/D", "-x", "3", "-y", "40", "-trials", "20000", "-seed", "5"},
			chaos: []string{
				fmt.Sprintf("burst.batch:panic:nth=%d;seed=13", roundBatch),
				"runctl.checkpoint.write:writeerr:nth=1;seed=13",
			},
		},
		{
			// Injected worker errors (not panics) take the same path.
			name:  "mlecdur_worker_errors",
			bin:   "mlecdur",
			args:  []string{"-scheme", "C/D", "-sim", "-trajectories", "600", "-seed", "9"},
			chaos: []string{fmt.Sprintf("poolsim.worker:error:nth=%d;seed=17", levelWorker)},
		},
		{
			name:  "mlecdur_ckpt_writeerr",
			bin:   "mlecdur",
			args:  []string{"-scheme", "D/D", "-sim", "-trajectories", "600", "-seed", "7"},
			chaos: []string{"runctl.checkpoint.write:writeerr:nth=2,bytes=8;seed=11"},
		},
		{
			name:  "mlecburst_ckpt_writeerr",
			bin:   "mlecburst",
			args:  []string{"-scheme", "D/D", "-x", "3", "-y", "40", "-trials", "20000", "-seed", "5"},
			chaos: []string{"runctl.checkpoint.write:writeerr:nth=2;seed=13"},
		},
		{
			// One campaign feeds four evaluators: their tallies share
			// each save and resume together.
			name:  "mlecsim_fig5_batch_panics",
			bin:   "mlecsim",
			args:  []string{"-seed", "3"},
			chaos: []string{fmt.Sprintf("burst.batch:panic:nth=%d;seed=19", roundBatch)},
			ids:   []string{"fig5"},
			saved: "fig5.ckpt",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bin := filepath.Join(bins, tc.bin)
			withCkpt := func(path string, flags ...string) []string {
				argv := append(append([]string(nil), tc.args...), "-checkpoint", path)
				return append(append(argv, flags...), tc.ids...)
			}
			clean, _ := runChaosBinary(t, bin, withCkpt(filepath.Join(t.TempDir(), "clean.ckpt"))...)

			ckpt := filepath.Join(t.TempDir(), "chaos.ckpt")
			for _, plan := range tc.chaos {
				_, stderrOut, code := runChaosBinaryExit(t, bin, withCkpt(ckpt, "-chaos", plan)...)
				if code != 1 {
					reportChaos(t, "FAIL %s: run under %q exited %d, want 1", tc.name, plan, code)
					t.Fatalf("run under %q exited %d, want 1\nstderr:\n%s", plan, code, stderrOut)
				}
				if !streamRE.Match(stderrOut) {
					t.Errorf("faulted run's stderr names no stream:\n%s", stderrOut)
				}
				resumeLine := fmt.Sprintf("Re-run the same command to resume from %s.", ckpt)
				if !bytes.Contains(stderrOut, []byte(resumeLine)) {
					t.Errorf("faulted run's stderr lacks %q:\n%s", resumeLine, stderrOut)
				}
				if _, err := os.Stat(filepath.Join(ckpt, tc.saved)); err != nil {
					reportChaos(t, "FAIL %s: fault under %q landed before the first checkpoint save", tc.name, plan)
					t.Fatalf("fault under %q landed before the first checkpoint save: %v\nstderr:\n%s", plan, err, stderrOut)
				}
			}

			resumed, resumeErr := runChaosBinary(t, bin, withCkpt(ckpt)...)
			clean, resumed = doneRE.ReplaceAll(clean, nil), doneRE.ReplaceAll(resumed, nil)
			if !bytes.Equal(clean, resumed) {
				reportChaos(t, "FAIL %s: resumed stdout diverged from fault-free run", tc.name)
				t.Fatalf("resume after the fault diverged from the fault-free run.\nclean:\n%s\nresumed:\n%s\nstderr:\n%s",
					clean, resumed, resumeErr)
			}
			reportChaos(t, "PASS %s: %s %v under %q failed after a save; resume byte-identical to fault-free run",
				tc.name, tc.bin, append(tc.args, tc.ids...), strings.Join(tc.chaos, " then "))
		})
	}
}

// TestChaosCheckpointCorruptionFallback corrupts the newest checkpoint
// generation of a finished campaign and re-runs the identical command:
// the resume must fall back to the previous generation, loudly, re-run
// the lost tail, and converge to the byte-identical result.
func TestChaosCheckpointCorruptionFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs -race binaries")
	}
	bins := buildRaceBinaries(t)
	bin := filepath.Join(bins, "mlecdur")
	ckpt := filepath.Join(t.TempDir(), "dur.ckpt")
	args := []string{"-scheme", "D/D", "-sim", "-trajectories", "600", "-seed", "7", "-checkpoint", ckpt}

	baseline, _ := runChaosBinary(t, bin, args...)
	prev := ckpt + ".1"
	if _, err := os.Stat(prev); err != nil {
		t.Fatalf("campaign with multiple checkpoint saves left no previous generation: %v", err)
	}

	// Flip a byte in the middle of the newest generation; the gzip CRC
	// turns that into a detected corruption on load.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, stderrOut := runChaosBinary(t, bin, args...)
	if !bytes.Contains(stderrOut, []byte("resuming from previous generation")) {
		reportChaos(t, "FAIL corruption_fallback: no fallback warning on stderr")
		t.Fatalf("fallback warning missing from stderr:\n%s", stderrOut)
	}
	if !bytes.Equal(baseline, resumed) {
		reportChaos(t, "FAIL corruption_fallback: resumed stdout diverged")
		t.Fatalf("resume after corruption diverged from the uninterrupted run.\nbaseline:\n%s\nresumed:\n%s",
			baseline, resumed)
	}
	reportChaos(t, "PASS corruption_fallback: corrupt newest generation healed via %s, byte-identical convergence", prev)
}
