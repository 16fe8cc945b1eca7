package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsOutOfRangeAFR: an AFR outside (0,1) is a usage error, not
// a silent fall-back to the 1% numbers.
func TestRejectsOutOfRangeAFR(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "mlecsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, afr := range []string{"-0.5", "0", "1", "1.5"} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, "-quick", "-afr", afr, "tab2")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() != 0 ||
			!strings.Contains(stderr.String(), "-afr must be in (0,1)") {
			t.Errorf("-afr %s: err %v, stdout %q, stderr %q; want exit 2, no stdout, a range error",
				afr, err, stdout.String(), stderr.String())
		}
	}
}
