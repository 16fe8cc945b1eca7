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

// TestZeroCatastropheRun: a splitting stage 1 that samples no
// catastrophe estimates a rate of 0. The nines column says n/a instead
// of +Inf, and one stderr line says why and asks for more trajectories.
func TestZeroCatastropheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	code, stdout, stderr := runCLI(t, bin, "-scheme", "D/D", "-sim", "-trajectories", "5", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	rows := strings.Split(strings.TrimSpace(stdout), "\n")[2:]
	if len(rows) != 4 {
		t.Fatalf("stdout %q: want four method rows", stdout)
	}
	for _, row := range rows {
		if f := strings.Fields(row); f[len(f)-1] != "n/a" || f[3] != "0" {
			t.Errorf("row %q: want annual PDL 0 and nines n/a", row)
		}
	}
	if strings.Contains(stdout, "Inf") {
		t.Errorf("stdout prints an infinite nines value:\n%s", stdout)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "no catastrophe was sampled") ||
		!strings.Contains(lines[0], "-trajectories above 5") {
		t.Errorf("stderr %q: want one line saying no catastrophe was sampled and asking for more -trajectories", stderr)
	}
}
