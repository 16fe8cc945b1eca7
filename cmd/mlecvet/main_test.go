package main

import (
	"bytes"
	"errors"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"mlec/internal/lint"
)

// TestBuildReportOrdering locks down the -json contract: findings come
// out sorted by (file, line, analyzer) and malformed directives by
// (file, line), whatever order the analyzers and packages produced
// them in. CI archives the document and diffs runs against each other,
// so any order leak is churn.
func TestBuildReportOrdering(t *testing.T) {
	pos := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line, Column: 1}
	}
	diags := []lint.Diagnostic{
		{Pos: pos("b.go", 4), Analyzer: "lockcheck", Message: "m"},
		{Pos: pos("a.go", 9), Analyzer: "goleak", Message: "m"},
		{Pos: pos("a.go", 9), Analyzer: "atomicmix", Message: "m"},
		{Pos: pos("a.go", 2), Analyzer: "lockcheck", Message: "m"},
	}
	pkgs := []*lint.Package{
		{Malformed: []lint.DirectiveError{{Pos: pos("z.go", 3)}, {Pos: pos("a.go", 7)}}},
		{Malformed: []lint.DirectiveError{{Pos: pos("a.go", 1)}, {Pos: pos("z.go", 1)}}},
	}

	report := buildReport(pkgs, diags)

	wantFindings := []struct {
		file     string
		line     int
		analyzer string
	}{
		{"a.go", 2, "lockcheck"},
		{"a.go", 9, "atomicmix"},
		{"a.go", 9, "goleak"},
		{"b.go", 4, "lockcheck"},
	}
	if len(report.Findings) != len(wantFindings) {
		t.Fatalf("got %d findings, want %d", len(report.Findings), len(wantFindings))
	}
	for i, w := range wantFindings {
		g := report.Findings[i]
		if g.File != w.file || g.Line != w.line || g.Analyzer != w.analyzer {
			t.Errorf("finding[%d] = %s:%d %s, want %s:%d %s",
				i, g.File, g.Line, g.Analyzer, w.file, w.line, w.analyzer)
		}
	}

	wantMalformed := []struct {
		file string
		line int
	}{
		{"a.go", 1}, {"a.go", 7}, {"z.go", 1}, {"z.go", 3},
	}
	if len(report.MalformedDirectives) != len(wantMalformed) {
		t.Fatalf("got %d malformed directives, want %d",
			len(report.MalformedDirectives), len(wantMalformed))
	}
	for i, w := range wantMalformed {
		g := report.MalformedDirectives[i]
		if g.File != w.file || g.Line != w.line {
			t.Errorf("malformed[%d] = %s:%d, want %s:%d", i, g.File, g.Line, w.file, w.line)
		}
	}
}

// TestWriteBaselineRefusesOnly: -write-baseline rewrites the ratchet
// file from the counts of the analyzers that ran, so under -only it
// would drop every other analyzer's key. The combination is a usage
// error (exit 2) and the file is left as it was.
func TestWriteBaselineRefusesOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mlecvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := filepath.Join(dir, "baseline.json")
	want := []byte("{\n  \"floateq\": 0,\n  \"hotbce\": 0\n}\n")
	if err := os.WriteFile(base, want, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-only", "floateq", "-baseline", base, "-write-baseline",
		"./internal/lint/testdata/src/floateq").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("exit: %v, want status 2\n%s", err, out)
	}
	if got, err := os.ReadFile(base); err != nil || !bytes.Equal(got, want) {
		t.Errorf("baseline rewritten (err %v):\n%s", err, got)
	}
}
