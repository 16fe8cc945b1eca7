package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEscapeEngine feeds arbitrary parser-valid Go sources through the
// escape/allocation engine. The engine must never panic and every
// returned site must be internally consistent, whatever the
// control-flow shape (goto loops, labeled continues, empty branches)
// and even without type information — an empty types.Info is how the
// engine sees expressions the checker could not resolve, and the
// classification must degrade, not crash. The corpus is seeded from
// the analyzer fixtures, so every construct the hot* analyzers care
// about is a mutation starting point.
func FuzzEscapeEngine(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "src", "*", "*.go"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no fixture seeds under testdata/src")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("package p\nfunc f(n int) {\n\ti := 0\nagain:\n\tdefer g()\n\ti++\n\tif i < n {\n\t\tgoto again\n\t}\n}\n")
	f.Add("package p\nfunc f(xs []int) []int {\n\tout := make([]int, 0, len(xs))\n\tfor _, x := range xs {\n\t\tout = append(out, x)\n\t}\n\treturn out\n}\n")
	// A lock copied by value and then locked through the copy: the idiom
	// of the fixture that left with the copylock analyzer (go vet reports
	// it now), kept as a mutation starting point.
	f.Add("package p\nimport \"sync\"\ntype G struct{ mu sync.Mutex; n int }\nfunc f(g *G) int { tmp := *g; tmp.mu.Lock(); defer tmp.mu.Unlock(); return tmp.n }\n")

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, s := range escapeSites(info, fset, fd.Body) {
				if s.Node == nil {
					t.Fatal("site with nil node")
				}
				if s.Class < AllocFree || s.Class > HeapAlloc {
					t.Fatalf("site with out-of-range class %d", s.Class)
				}
				if s.What == "" {
					t.Fatal("site with empty description")
				}
				pos := fset.Position(s.Node.Pos())
				if !pos.IsValid() {
					t.Fatal("site with invalid position")
				}
			}
		}
	})
}
