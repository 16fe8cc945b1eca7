package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mlec/cmd/internal/clitest"
)

func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }

// buildCLI builds this command once for the package's tests.
var buildCLI = clitest.Build

// TestRejectsOutOfRangeAFR: an AFR outside (0,1) is a usage error, not
// a silent fall-back to the 1% numbers.
func TestRejectsOutOfRangeAFR(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
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

// TestRejectsUnknownIDBeforeWork: an unknown id anywhere in the list is
// a usage error caught before the first experiment runs or the
// checkpoint directory is made.
func TestRejectsUnknownIDBeforeWork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-quick", "-checkpoint", ckpt, "tab1", "nosuch")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout.Len() != 0 ||
		!strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
		t.Errorf("err %v, stdout %q, stderr %q; want exit 2, no stdout, the unknown id named",
			err, stdout.String(), stderr.String())
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory made before the ids were checked (stat err %v)", err)
	}
}
