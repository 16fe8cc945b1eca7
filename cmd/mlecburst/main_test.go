package main

import (
	"os"
	"strings"
	"testing"

	"mlec/cmd/internal/clitest"
)

func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }

// TestRejectsImpossibleBurst: a burst with fewer failures than racks,
// more racks than the topology has, or more failures than the racks
// hold disks is a usage error, not a NaN estimate from zero trials.
func TestRejectsImpossibleBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := clitest.Build(t)
	run := func(args ...string) (int, string, string) { return clitest.Run(t, bin, args...) }
	for _, c := range []struct{ x, y, msg string }{
		{"5", "3", "-y must be between"},
		{"1000", "5", "-x must be between"},
		{"3", "100000", "-y must be between"},
		{"0", "5", "-x must be between"},
	} {
		code, stdout, stderr := run("-x", c.x, "-y", c.y, "-trials", "10")
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.msg) {
			t.Errorf("-x %s -y %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, %q",
				c.x, c.y, code, stdout, stderr, c.msg)
		}
	}
	// The bounds themselves are bursts that can happen.
	code, stdout, stderr := run("-x", "2", "-y", "2", "-trials", "10")
	if code != 0 || !strings.Contains(stdout, "PDL(y=2 failures across x=2 racks)") || strings.Contains(stdout, "NaN") {
		t.Errorf("-x 2 -y 2: exit %d, stdout %q, stderr %q; want an estimate", code, stdout, stderr)
	}
}
