package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The self-tests mirror golang.org/x/tools' analysistest convention:
// each fixture package under testdata/src/<name> marks the lines where
// an analyzer must report with comments of the form
//
//	// want `regexp`
//
// (one or more backquoted patterns per comment). Lines without a want
// comment must produce no diagnostic, so every fixture doubles as a
// negative test for its unmarked declarations.

func newFixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return pkg
}

type wantKey struct {
	file string
	line int
}

type wantEntry struct {
	re   *regexp.Regexp
	used bool
}

// collectWants extracts // want comments from the fixture sources.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]*wantEntry {
	t.Helper()
	wants := make(map[wantKey][]*wantEntry)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				for _, re := range parseWantPatterns(t, pos, rest) {
					wants[k] = append(wants[k], &wantEntry{re: re})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns reads one or more backquoted regexps.
func parseWantPatterns(t *testing.T, pos token.Position, s string) []*regexp.Regexp {
	t.Helper()
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			if len(out) == 0 {
				t.Fatalf("%s: want comment has no patterns", pos)
			}
			return out
		}
		if s[0] != '`' {
			t.Fatalf("%s: malformed want comment near %q (use backquoted regexps)", pos, s)
		}
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern %q", pos, s)
		}
		re, err := regexp.Compile(s[1 : 1+end])
		if err != nil {
			t.Fatalf("%s: bad want pattern: %v", pos, err)
		}
		out = append(out, re)
		s = s[2+end:]
	}
}

// runFixture runs one analyzer over one fixture package and matches its
// diagnostics against the want comments: every diagnostic must be
// expected, and every expectation must fire.
func runFixture(t *testing.T, l *Loader, a *Analyzer, name string) {
	t.Helper()
	pkg := loadFixture(t, l, name)
	wants := collectWants(t, pkg)
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, entries := range wants {
		for _, w := range entries {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					filepath.Base(k.file), k.line, w.re)
			}
		}
	}
}

func TestAnalyzers(t *testing.T) {
	l := newFixtureLoader(t)
	cases := []struct {
		a       *Analyzer
		fixture string
	}{
		{SharedRNG, "sharedrng"},
		{GlobalRand, "globalrand"},
		{FloatEq, "floateq"},
		{NakedPanic, "nakedpanic"},
		{WaitGroupCapture, "waitgroupcapture"},
		{BareGo, "barego"},
		{MapOrder, "maporder"},
		{WallTime, "walltime"},
		{WallTime, "walltimecli"},
		{ErrFlow, "errflow"},
		{HotAlloc, "hotalloc"},
		{HotAlloc, "hotiface"},
		{HotAlloc, "hotdefer"},
		{HotAlloc, "hotprealloc"},
		{HotBCE, "hotbce"},
		{HotInline, "hotinline"},
		{GoLeak, "goleak"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			runFixture(t, l, c.a, c.fixture)
		})
	}
}

// malformed returns the package's malformed directives of one kind,
// named by the directive's prefix ("//mlec:unit").
func malformed(pkg *Package, directive string) []DirectiveError {
	var out []DirectiveError
	for _, e := range pkg.Malformed {
		if strings.HasPrefix(e.Msg, directive) {
			out = append(out, e)
		}
	}
	return out
}

// TestMalformedDirective checks that //lint:allow without the mandatory
// reason is recorded as malformed and does not suppress the finding.
func TestMalformedDirective(t *testing.T) {
	l := newFixtureLoader(t)
	runFixture(t, l, FloatEq, "directive") // the finding must still fire
	pkg := loadFixture(t, l, "directive")
	if got := malformed(pkg, "//lint:allow"); len(got) != 1 || len(pkg.Malformed) != 1 {
		t.Fatalf("got malformed directives %v, want one //lint:allow", pkg.Malformed)
	}
}

// TestMalformedUnitDirective checks that a leftover //mlec:unit
// annotation is recorded as malformed: the unit grammar is gone (mathx's
// Prob, Rate and AFR types carry units now), so an annotation that
// claims one must not sit silently in the code.
func TestMalformedUnitDirective(t *testing.T) {
	l := newFixtureLoader(t)
	pkg := loadFixture(t, l, "hotdirective")
	if got := malformed(pkg, "//mlec:unit"); len(got) != 1 || got[0].Msg != "//mlec:unit"+badMlec {
		t.Fatalf("got malformed //mlec:unit directives %v, want one: %v", got, pkg.Malformed)
	}
}

// TestMalformedHotDirective checks the //mlec:hot anchoring rules: a
// hot directive on a non-function declaration or anchored to nothing,
// and a cold directive on a statement, are recorded as malformed —
// while the valid annotations in the same file still seed hotness
// propagation (the fixture's want comment proves the chain fires).
func TestMalformedHotDirective(t *testing.T) {
	l := newFixtureLoader(t)
	runFixture(t, l, HotAlloc, "hotdirective")
	pkg := loadFixture(t, l, "hotdirective")
	if got := malformed(pkg, "//mlec:hot"); len(got) != 3 {
		t.Fatalf("got %d malformed hot/cold directives, want 3: %v", len(got), pkg.Malformed)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := ByName("floateq, nakedpanic")
	if err != nil || len(two) != 2 || two[0] != FloatEq || two[1] != NakedPanic {
		t.Fatalf("ByName(\"floateq, nakedpanic\") = %v, err %v", two, err)
	}
	// Unknown names are rejected — among them the analyzers hotalloc
	// absorbed, the one go vet's copylocks check replaced, the two the
	// race detector replaced, the one the tests made redundant and the
	// one mathx's unit types replaced.
	for _, name := range []string{"nosuch", "hotprealloc", "hotiface", "hotdefer", "copylock", "lockcheck", "atomicmix", "cancel", "probmix"} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
			t.Errorf("ByName(%q) error = %v, want unknown analyzer", name, err)
		}
	}
}

// TestSuiteIsClean is the self-hosting check: the analyzers must find
// nothing in the repository's own library code. It duplicates what
// `make check` runs in CI, so a regression fails `go test` too.
func TestSuiteIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Malformed {
			t.Errorf("%s: directive: %s", e.Pos, e.Msg)
		}
	}
}

// TestAllowDirectivesLoadBearing is TestSuiteIsClean's converse: every
// //lint:allow in the repository must suppress at least one finding
// when the whole suite runs. A directive that suppresses nothing is a
// reviewed excuse for code that is no longer there — or the sign that
// an analyzer silently stopped reporting a site it used to.
func TestAllowDirectivesLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pkgs, All()); err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		// A nested module (bench/) is linted from inside its own module
		// by `make bench-check`, where the facts of the packages it
		// imports are not loaded. That run reports findings but not
		// unused directives, so nothing judges bench/'s directives.
		if _, err := os.Stat(filepath.Join(pkg.Dir, "go.mod")); err == nil && pkg.Dir != l.moduleDir {
			continue
		}
		for _, stale := range pkg.unusedAllows() {
			t.Errorf("%s: //lint:allow suppresses no finding", stale)
		}
	}
}
