package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

func loadEdgePackage(t *testing.T) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "loadedge"))
	if err != nil {
		t.Fatalf("LoadDir(loadedge): %v", err)
	}
	if pkg == nil {
		t.Fatal("LoadDir(loadedge) returned no package")
	}
	return pkg
}

// TestLoadBuildTagExcluded checks that files failing their //go:build
// (or legacy // +build) constraint are skipped before type-checking.
// The excluded fixtures reference undefined identifiers, so accidental
// inclusion fails the load itself, not just the scope lookups.
func TestLoadBuildTagExcluded(t *testing.T) {
	pkg := loadEdgePackage(t)
	scope := pkg.Types.Scope()
	if scope.Lookup("Included") == nil {
		t.Error("unconstrained file was not loaded: Included missing")
	}
	for _, name := range []string{"Excluded", "ExcludedLegacy"} {
		if scope.Lookup(name) != nil {
			t.Errorf("build-constrained declaration %s was loaded", name)
		}
	}
}

// TestLoadTestOnlyPackage checks that a directory holding only _test.go
// files loads as (nil, nil): no package, no error.
func TestLoadTestOnlyPackage(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "onlytests"))
	if err != nil {
		t.Fatalf("LoadDir(onlytests): %v", err)
	}
	if pkg != nil {
		t.Fatalf("test-only directory produced package %s", pkg.Path)
	}
}

// TestFirstLineDirective checks that a //lint:allow on line 1 of a file
// (where it doubles as the package doc comment) is indexed and
// suppresses findings on lines 1 and 2 but not line 3.
func TestFirstLineDirective(t *testing.T) {
	pkg := loadEdgePackage(t)
	file, err := filepath.Abs(filepath.Join("testdata", "src", "loadedge", "firstline.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		line int
		want bool
	}{{1, true}, {2, true}, {3, false}} {
		got := pkg.allowed("walltime", token.Position{Filename: file, Line: tc.line})
		if got != tc.want {
			t.Errorf("allowed(walltime, line %d) = %v, want %v", tc.line, got, tc.want)
		}
	}
	if pkg.allowed("maporder", token.Position{Filename: file, Line: 2}) {
		t.Error("directive suppressed the wrong analyzer")
	}
}

// TestMalformedDirectiveRecorded checks that a directive missing its
// mandatory reason is recorded in Malformed rather than honored.
func TestMalformedDirectiveRecorded(t *testing.T) {
	pkg := loadEdgePackage(t)
	if len(pkg.Malformed) != 1 {
		t.Fatalf("Malformed = %v, want exactly one entry", pkg.Malformed)
	}
	if base := filepath.Base(pkg.Malformed[0].Pos.Filename); base != "loadedge.go" {
		t.Errorf("malformed directive attributed to %s", base)
	}
	// The well-formed directive in the same file must still be indexed.
	file, err := filepath.Abs(filepath.Join("testdata", "src", "loadedge", "loadedge.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for line := 1; line < 20 && !found; line++ {
		found = pkg.allowed("maporder", token.Position{Filename: file, Line: line})
	}
	if !found {
		t.Error("well-formed directive in loadedge.go was not indexed")
	}
}

// TestParseAllowDirective pins the directive grammar.
func TestParseAllowDirective(t *testing.T) {
	for _, tc := range []struct {
		text        string
		analyzer    string
		isDirective bool
		ok          bool
	}{
		{"//lint:allow maporder because fixtures", "maporder", true, true},
		{"//lint:allow maporder", "", true, false},
		{"//lint:allow", "", true, false},
		{"//lint:allow   \t ", "", true, false},
		{"// lint:allow maporder reason", "", false, false},
		{"//nolint:allow maporder reason", "", false, false},
		{"", "", false, false},
	} {
		analyzer, isDirective, ok := parseAllowDirective(tc.text)
		if analyzer != tc.analyzer || isDirective != tc.isDirective || ok != tc.ok {
			t.Errorf("parseAllowDirective(%q) = (%q, %v, %v), want (%q, %v, %v)",
				tc.text, analyzer, isDirective, ok, tc.analyzer, tc.isDirective, tc.ok)
		}
	}
}

// TestFileIncluded pins the constraint evaluator on representative
// sources.
func TestFileIncluded(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		want bool
	}{
		{"no constraint", "package x\n", true},
		{"satisfied goos", "//go:build linux || darwin || windows\n\npackage x\n", true},
		{"unsatisfied tag", "//go:build neverenabledtag\n\npackage x\n", false},
		{"negated unsatisfied", "//go:build !neverenabledtag\n\npackage x\n", true},
		{"legacy unsatisfied", "// +build neverenabledtag\n\npackage x\n", false},
		{"release tag", "//go:build go1.18\n\npackage x\n", true},
		{"after package clause ignored", "package x\n\n//go:build neverenabledtag\n", true},
	} {
		if got := fileIncluded([]byte(tc.src)); got != tc.want {
			t.Errorf("%s: fileIncluded = %v, want %v", tc.name, got, tc.want)
		}
	}
}
