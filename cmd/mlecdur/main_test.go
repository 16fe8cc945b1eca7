package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlec/cmd/internal/clitest"
)

func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }

// buildCLI and runCLI build this command once for the package's tests
// and run it.
var (
	buildCLI = clitest.Build
	runCLI   = clitest.Run
)

// TestRejectsOutOfRangeAFR: an AFR outside (0,1) is a usage error, not
// a silent fall-back to the 1% numbers.
func TestRejectsOutOfRangeAFR(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	for _, afr := range []string{"-0.5", "0", "1", "1.5"} {
		code, stdout, stderr := runCLI(t, bin, "-afr", afr)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-afr must be in (0,1)") {
			t.Errorf("-afr %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, a range error",
				afr, code, stdout, stderr)
		}
	}
}

// TestFailedObsActivationWritesNoReport: when an observability flag
// fails to start, the run never happens, so -run-report leaves no file.
func TestFailedObsActivationWritesNoReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	rr := filepath.Join(dir, "rr.json")
	code, _, stderr := runCLI(t, bin, "-run-report", rr, "-span-out", filepath.Join(dir, "nodir", "s.jsonl"))
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, stderr)
	}
	if _, err := os.Stat(rr); !os.IsNotExist(err) {
		t.Errorf("failed activation left a run report (stat err %v)", err)
	}
}

// TestWorkerFaultResumeHint: a faulted worker fails the run with exit 1
// and names its stream; with -checkpoint the error is followed by the
// resume line, without it nothing is added.
func TestWorkerFaultResumeHint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	ckpt := filepath.Join(t.TempDir(), "dur.ckpt")
	hint := "Re-run the same command to resume from " + ckpt + "."
	for _, kind := range []string{"panic", "error"} {
		args := []string{"-scheme", "C/D", "-sim", "-trajectories", "50", "-chaos", "poolsim.worker:" + kind + ":nth=1"}
		code, stdout, stderr := runCLI(t, bin, args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "stream ") || strings.Contains(stderr, "Re-run") {
			t.Errorf("%s without -checkpoint: exit %d, stdout %q, stderr %q; want exit 1 naming the stream, no resume line",
				kind, code, stdout, stderr)
		}
		code, _, stderr = runCLI(t, bin, append(args, "-checkpoint", ckpt)...)
		if code != 1 || !strings.Contains(stderr, hint) {
			t.Errorf("%s with -checkpoint: exit %d, stderr %q; want exit 1 and %q", kind, code, stderr, hint)
		}
	}
}
