package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"mlec/internal/lint/cfg"
)

// FuzzTaintEngine feeds arbitrary parser-valid Go sources through the
// CFG builder, the taint engine and the domain engine. Neither engine
// may panic or diverge, whatever the control-flow shape: the worklists
// must reach their fixed points even on code that does not type-check
// (the fuzzer's inputs carry an empty types.Info, which is also how the
// engines see expressions the checker could not resolve). The corpus is
// seeded from the analyzer fixtures, so every construct an analyzer
// cares about is a mutation starting point.
func FuzzTaintEngine(f *testing.F) {
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
	f.Add("package p\nfunc f() { for { if x { continue }; break } }\n")
	f.Add("package p\nfunc f(n int) int {\n\tgoto L\nL:\n\treturn n\n}\n")
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
		facts := &Facts{
			decls:     make(map[*types.Func]*declSite),
			fset:      fset,
			units:     make(unitIndex),
			summaries: make(map[*types.Func]*funcSummary),
			domains:   make(map[*types.Func]*domainSummary),
			mayFail:   make(map[*types.Func]bool),
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cfg.Build(fd.Body)
			analyzeBody(info, facts, fd.Body, nil, nil)
			domainFlow(info, facts, fd.Body, nil, nil)
		}
	})
}
