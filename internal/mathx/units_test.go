package mathx

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestUnitMixesDoNotCompile type-checks testdata/unitmix.go against
// this package's source: the unit mixes the deleted probmix analyzer
// reported must now be compile errors. Each line carrying a
// want `regexp` comment must hold exactly one type error, matching it;
// no other line may hold one. Were Prob, Rate or AFR an alias of
// float64, the mixes through it would compile and this test would fail.
func TestUnitMixesDoNotCompile(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	std := importer.Default()
	mathx, err := (&types.Config{Importer: std}).Check("mlec/internal/mathx", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}

	const fixture = "testdata/unitmix.go"
	f, err := parser.ParseFile(fset, fixture, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	wantRe := regexp.MustCompile("^// want `(.*)`$")
	wants := make(map[int]*regexp.Regexp)
	for _, group := range f.Comments {
		for _, c := range group.List {
			if m := wantRe.FindStringSubmatch(c.Text); m != nil {
				wants[fset.Position(c.Pos()).Line] = regexp.MustCompile(m[1])
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	got := make(map[int][]string)
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == "mlec/internal/mathx" {
				return mathx, nil
			}
			return std.Import(path)
		}),
		Error: func(err error) {
			te := err.(types.Error)
			line := fset.Position(te.Pos).Line
			got[line] = append(got[line], te.Msg)
		},
	}
	conf.Check("unitmix", fset, []*ast.File{f}, nil)
	for line, re := range wants {
		if msgs := got[line]; len(msgs) != 1 || !re.MatchString(msgs[0]) {
			t.Errorf("%s:%d: got type errors %q, want one matching %q", fixture, line, msgs, re)
		}
	}
	for line, msgs := range got {
		if wants[line] == nil {
			t.Errorf("%s:%d: unexpected type errors %q", fixture, line, msgs)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
