package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temporary directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mlecdur")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs bin and returns its exit code, stdout and stderr.
func runCLI(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("running %s: %v", bin, err)
	return 0, "", ""
}

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
