// Package clitest builds the command under test once per test binary and
// runs it: the end-to-end harness of the mlecdur, mlecburst and mlecsim
// tests. A package using it runs its tests through Main.
package clitest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	once     sync.Once
	dir, bin string
	buildErr error
)

// Main runs the package's tests, then removes the binary Build made.
func Main(m *testing.M) int {
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	return code
}

// Build compiles the command in the working directory, the package under
// test, on its first call, and returns the binary's path.
func Build(t *testing.T) string {
	t.Helper()
	once.Do(func() {
		if dir, buildErr = os.MkdirTemp("", "clitest-"); buildErr != nil {
			return
		}
		// The test binary of command X is X.test.
		bin = filepath.Join(dir, strings.TrimSuffix(filepath.Base(os.Args[0]), ".test"))
		if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return bin
}

// Run runs bin and returns its exit code, stdout and stderr.
func Run(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running %s: %v", bin, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}
