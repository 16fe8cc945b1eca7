package lint

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const cannedRaceOutput = `=== RUN   TestRace
==================
WARNING: DATA RACE
Read at 0x00c000014088 by goroutine 8:
  stressfix.(*Counter).Inc()
      /tmp/mod/counter.go:14 +0x38
  stressfix.TestRace.func1()
      /tmp/mod/race_test.go:13 +0x4e

Previous write at 0x00c000014088 by goroutine 7:
  stressfix.(*Counter).Inc()
      /tmp/mod/counter.go:14 +0x50

Goroutine 8 (running) created at:
  stressfix.TestRace()
      /tmp/mod/race_test.go:12 +0xc4
==================
==================
WARNING: DATA RACE
Write at 0x00c00001c0b0 by goroutine 9:
  stressfix.Touch()
      /tmp/mod/other.go:7 +0x30
==================
--- FAIL: TestRace (0.01s)
    testing.go:1490: race detected during execution of test
FAIL
`

func TestParseRaceReports(t *testing.T) {
	reports := ParseRaceReports(strings.NewReader(cannedRaceOutput))
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	want0 := []string{"/tmp/mod/counter.go", "/tmp/mod/race_test.go"}
	if len(reports[0].Files) != 2 || reports[0].Files[0] != want0[0] || reports[0].Files[1] != want0[1] {
		t.Errorf("report 0 files = %v, want %v", reports[0].Files, want0)
	}
	if len(reports[1].Files) != 1 || reports[1].Files[0] != "/tmp/mod/other.go" {
		t.Errorf("report 1 files = %v, want [/tmp/mod/other.go]", reports[1].Files)
	}
	if !strings.Contains(reports[0].Raw, "Previous write") {
		t.Error("report 0 raw text lost the Previous write stanza")
	}
}

// TestParseRaceReportsTruncated: a crash mid-report must not hide the
// race — the unterminated block is still returned.
func TestParseRaceReportsTruncated(t *testing.T) {
	src := "==================\nWARNING: DATA RACE\nWrite at 0xdead by goroutine 5:\n  p.f()\n      /tmp/mod/f.go:3 +0x10\n"
	reports := ParseRaceReports(strings.NewReader(src))
	if len(reports) != 1 || len(reports[0].Files) != 1 || reports[0].Files[0] != "/tmp/mod/f.go" {
		t.Fatalf("truncated block not recovered: %+v", reports)
	}
}

func TestUnexplainedRaces(t *testing.T) {
	reports := ParseRaceReports(strings.NewReader(cannedRaceOutput))
	diags := []Diagnostic{{
		Pos:      token.Position{Filename: "/tmp/mod/counter.go", Line: 99},
		Analyzer: "lockcheck",
	}}
	un := UnexplainedRaces(reports, diags)
	if len(un) != 1 {
		t.Fatalf("got %d unexplained, want 1 (only other.go lacks a finding)", len(un))
	}
	if un[0].Files[0] != "/tmp/mod/other.go" {
		t.Errorf("wrong report survived: %v", un[0].Files)
	}
	if rest := UnexplainedRaces(reports, append(diags, Diagnostic{
		Pos: token.Position{Filename: "/tmp/mod/other.go", Line: 1},
	})); len(rest) != 0 {
		t.Errorf("fully claimed set still yields %d unexplained", len(rest))
	}
}

// TestStressSource checks harness generation against the lockcheck
// fixture, which carries struct annotations under both mutex kinds and
// a package-level annotated var. The output must parse and must lock
// exactly the annotated guards around the annotated state.
func TestStressSource(t *testing.T) {
	l := newFixtureLoader(t)
	pkg := loadFixture(t, l, "lockcheck")
	src := stressSource(pkg)
	if src == nil {
		t.Fatal("stressSource returned nil for an annotated package")
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, StressFileName, src, 0); err != nil {
		t.Fatalf("generated harness does not parse: %v\n%s", err, src)
	}
	for _, want := range []string{
		"func TestMlecRaceStressCounter(t *testing.T)",
		"func TestMlecRaceStressStats(t *testing.T)",
		"func TestMlecRaceStressPkgVars(t *testing.T)",
		"s.mu.Lock()",
		"_ = s.n",
		"s.rw.Lock()",
		"_ = s.total",
		"stateMu.Lock()",
		"_ = registry",
	} {
		if !strings.Contains(string(src), want) {
			t.Errorf("generated harness missing %q", want)
		}
	}
	// A package with no annotations generates nothing.
	if s := stressSource(loadFixture(t, l, "goleak")); s != nil {
		t.Errorf("unannotated package produced a harness:\n%s", s)
	}
}

// writeRaceModule lays out a throwaway module whose Counter type has a
// racy increment and a test that executes the race. With annotate set,
// the counter carries the //mlec:guardedby annotation that lets
// lockcheck claim the race.
func writeRaceModule(t *testing.T, annotate bool) string {
	t.Helper()
	dir := t.TempDir()
	guard := ""
	if annotate {
		guard = "\t//mlec:guardedby mu\n"
	}
	files := map[string]string{
		"go.mod": "module stressfix\n\ngo 1.24\n",
		"counter.go": "package stressfix\n\nimport \"sync\"\n\ntype Counter struct {\n" +
			"\tmu sync.Mutex\n" + guard + "\tn int\n}\n\n" +
			"// Inc mutates without the lock: the seeded bug.\n" +
			"func (c *Counter) Inc() { c.n++ }\n\n" +
			"func (c *Counter) Get() int {\n\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.n\n}\n",
		"race_test.go": "package stressfix\n\nimport (\n\t\"sync\"\n\t\"testing\"\n)\n\n" +
			"func TestRace(t *testing.T) {\n\tvar c Counter\n\tvar wg sync.WaitGroup\n" +
			"\tfor g := 0; g < 4; g++ {\n\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n" +
			"\t\t\tfor i := 0; i < 200; i++ {\n\t\t\t\tc.Inc()\n\t\t\t}\n\t\t}()\n\t}\n" +
			"\twg.Wait()\n\t_ = c.Get()\n}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// raceTest runs the module's tests under -race and returns the combined
// output. The run is expected to fail (the seeded race), so only infra
// errors are fatal.
func raceTest(t *testing.T, dir string) []byte {
	t.Helper()
	cmd := exec.Command("go", "test", "-race", "-count=1", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("seeded race did not fail the -race run:\n%s", out)
	}
	if !strings.Contains(string(out), "WARNING: DATA RACE") {
		t.Fatalf("-race run failed without a race report: %v\n%s", err, out)
	}
	return out
}

// TestRaceOracleExplained is the end-to-end positive direction: a
// seeded race in an annotated struct is reported by the race detector
// AND claimed by a lockcheck finding in the same file, so the oracle
// counts zero unexplained races.
func TestRaceOracleExplained(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a module under -race")
	}
	dir := writeRaceModule(t, true)

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, ConcurrencyAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "lockcheck" && filepath.Base(d.Pos.Filename) == "counter.go" {
			found = true
		}
	}
	if !found {
		t.Fatalf("lockcheck did not claim the seeded race; diags: %v", diags)
	}

	// The generated stress harness must coexist with the seeded test:
	// it compiles, runs, and is itself race-free.
	paths, dirs, err := WriteStressTests(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(dirs) != 1 {
		t.Fatalf("WriteStressTests wrote %v, want one harness", paths)
	}

	out := raceTest(t, dir)
	reports := ParseRaceReports(strings.NewReader(string(out)))
	if len(reports) == 0 {
		t.Fatalf("no race reports parsed from:\n%s", out)
	}
	if un := UnexplainedRaces(reports, diags); len(un) != 0 {
		t.Errorf("explained race counted as unexplained: %+v", un)
	}
}

// TestRaceOracleUnexplained is the negative direction: the same seeded
// race without the annotation produces no static finding, so the race
// report must surface as unexplained (this is what fails CI).
func TestRaceOracleUnexplained(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a module under -race")
	}
	dir := writeRaceModule(t, false)

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, ConcurrencyAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "lockcheck" {
			t.Fatalf("unannotated module still has a lockcheck finding: %v", d)
		}
	}

	out := raceTest(t, dir)
	reports := ParseRaceReports(strings.NewReader(string(out)))
	if len(reports) == 0 {
		t.Fatalf("no race reports parsed from:\n%s", out)
	}
	un := UnexplainedRaces(reports, diags)
	if len(un) == 0 {
		t.Fatal("race with no static finding was not flagged as unexplained")
	}
}
